//go:build race

package topo_test

const raceEnabled = true
