//go:build !race

package vdb

const raceEnabled = false
