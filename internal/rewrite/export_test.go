package rewrite

// DeltaIndex is the chosen Δ-view's position in the selection's cover
// list.
func DeltaIndex(p *JoinPlan) int { return p.deltaIdx }
