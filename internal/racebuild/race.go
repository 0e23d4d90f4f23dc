//go:build race

package racebuild

// Enabled is true in binaries built with -race.
const Enabled = true
