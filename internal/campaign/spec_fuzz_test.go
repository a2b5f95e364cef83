package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecPrice decodes a POST /v1/jobs body the way pilotserve does and
// prices every spec in it without simulating: NumJobs, NewPlan, every
// cell's CellKey and CellSpec, and TraceID. Nothing may panic, every
// accepted spec must sit within the caps, and NumJobs must be
// non-negative and agree with Plan.NumJobs. testdata/fuzz holds the
// body whose 2^62 trials once priced at one job and then crashed Run.
func FuzzSpecPrice(f *testing.F) {
	for _, body := range []string{
		`{"jobs":[{}]}`,
		`{"jobs":[{"benchmarks":["sgemm"],"sms":1000000000}]}`,
		`{"jobs":[{"benchmarks":[" sgemm"],"designs":["rfc-hints"],"protect":["ecc","unprotected"],"trials":2,"scale":32,"sms":64}]}`,
		`{"jobs":[{"trials":5139},{"trials":5140}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req struct {
			Jobs []Spec `json:"jobs"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		for _, spec := range req.Jobs {
			n, err := spec.NumJobs()
			pl, perr := NewPlan(spec)
			if (err == nil) != (perr == nil) {
				t.Fatalf("NumJobs error %v, NewPlan error %v", err, perr)
			}
			if err != nil {
				continue
			}
			s := pl.Spec()
			if s.Trials < 1 || s.Trials > maxTrials || s.SMs < 1 || s.SMs > maxSMs ||
				!(s.Scale > 0 && s.Scale <= maxScale) {
				t.Fatalf("accepted spec past a cap: %+v", s)
			}
			if n < 0 || n > maxJobs || n != pl.NumJobs() {
				t.Fatalf("NumJobs %d, Plan.NumJobs %d, cap %d", n, pl.NumJobs(), maxJobs)
			}
			for i := 0; i < pl.NumCells(); i++ {
				pl.CellKey(i)
				pl.CellSpec(i)
			}
			pl.TraceID()
		}
	})
}
