package plancache

// NumShards reports the rounded shard count.
func NumShards(c *Cache) int { return len(c.shards) }
