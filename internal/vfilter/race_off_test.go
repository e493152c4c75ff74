//go:build !race

package vfilter

const raceEnabled = false
