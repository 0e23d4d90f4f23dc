//go:build !race

// Package racebuild reports whether the binary was built with the race
// detector, so tests whose budgets assume uninstrumented code can skip.
package racebuild

// Enabled is true in binaries built with -race.
const Enabled = false
