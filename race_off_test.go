//go:build !race

package pamakv

const raceEnabled = false
