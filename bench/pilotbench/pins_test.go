package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/jobs"
	"pilotrf/internal/sim"
)

var update = flag.Bool("update", false, "regenerate testdata/pins.json (takes about a minute)")

// detachedDigest simulates a cell with every observer detached and
// returns its statistics digest.
func detachedDigest(c *cell) (string, error) {
	g, err := sim.New(c.cfg)
	if err != nil {
		return "", err
	}
	rs, err := g.RunKernels(c.wl.Name, c.wl.Kernels)
	if err != nil {
		return "", err
	}
	return digest(rs), nil
}

// TestPins checks the pinned outputs cover every suite cell and the
// default-seed campaign. With -update it regenerates them from detached
// runs: the observed suite is then checked against detached results.
func TestPins(t *testing.T) {
	pins := loadPins()
	campaignKey := campaignPinKey(1, defaultCampaignParams())
	if *update {
		pins = map[string]string{}
		for _, p := range []suiteParams{detachedParams(), observedParams()} {
			cells, err := buildCells(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				d, err := detachedDigest(&cells[i])
				if err != nil {
					t.Fatal(err)
				}
				pins[pinKey(p.scale, &cells[i])] = d
			}
		}
		p := defaultCampaignParams()
		pool, err := jobs.New(jobs.Config{Workers: p.workers})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		e := &env{seed: 1, tmp: t.TempDir(), cal: newCalibrator()}
		r, err := runRound(context.Background(), e, p, pool, filepath.Join(e.tmp, "cache"), 0)
		if err != nil {
			t.Fatal(err)
		}
		pins[campaignKey] = reportSHA(r.cold)
		b, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "pins.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := len(detachedParams().schemes)*17 + len(observedSchemes)*17
	suite := 0
	for k := range pins {
		if strings.HasPrefix(k, "suite/") {
			suite++
		}
	}
	if suite != want || pins[campaignKey] == "" {
		t.Errorf("pins.json holds %d suite digests (want %d) and campaign pin %q", suite, want, pins[campaignKey])
	}
}
