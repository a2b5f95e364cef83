package main

import (
	_ "embed"
	"encoding/json"
)

// pinsJSON holds the outputs pinned at the default seed: every suite
// cell's statistics digest and the campaign-cache report's SHA-256.
// Regenerate with `go test ./pilotbench -run TestPins -update` only
// together with a change that is meant to alter simulated results.
//
//go:embed testdata/pins.json
var pinsJSON []byte

// loadPins returns the pinned outputs, keyed as pinKey and
// campaignPinKey name them.
func loadPins() map[string]string {
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic("pilotbench: testdata/pins.json: " + err.Error()) // embedded at build time
	}
	return pins
}
