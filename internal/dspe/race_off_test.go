//go:build !race

package dspe

const raceEnabled = false
