package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/fleet"
	"pilotrf/internal/trace"
)

// remoteStatus mirrors pilotserve's NDJSON progress line (the subset
// this client reads).
type remoteStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Done   int              `json:"done"`
	Total  int              `json:"total"`
	Report *campaign.Report `json:"report,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// runRemote executes the campaign on a pilotserve coordinator instead
// of the local pool: submit the spec as a one-job batch, stream its
// NDJSON progress to completion, and return the report — which is
// byte-identical to a local run of the same spec, that being the
// fleet's core guarantee — and, when tracing, the job's span tree.
//
// Every request goes through one fleet.Link: refused connections, 429
// and 5xx answers retry under its policy, each retry reported on
// stderr, and any other 4xx fails at once with the server's message.
// The client survives a coordinator restart: a broken stream, or a 404
// for the in-flight job id (the restarted process minted fresh ids),
// resubmits the spec under a retry budget of its own. Cells finished
// before the crash replay from the coordinator's cache, so a
// resubmission redoes only the gap.
func runRemote(coordinator string, spec campaign.Spec, tracing bool, progress, stderr io.Writer) (campaign.Report, []trace.Span, error) {
	body, err := json.Marshal(struct {
		Jobs []campaign.Spec `json:"jobs"`
	}{Jobs: []campaign.Spec{spec}})
	if err != nil {
		return campaign.Report{}, nil, err
	}
	ctx := context.Background()
	link := fleet.NewLink(coordinator)
	link.OnRetry = func(err error, d time.Duration) {
		fmt.Fprintf(stderr, "coordinator hiccup (%v); retrying in %v\n", err, d)
	}
	bo := fleet.Policy{}.Start()
	for {
		buf, _, err := link.Do(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return campaign.Report{}, nil, err
		}
		var sub struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(buf, &sub); err != nil || len(sub.Jobs) != 1 || sub.Jobs[0].ID == "" {
			return campaign.Report{}, nil, fmt.Errorf("submit: malformed response %.200q", buf)
		}
		id := sub.Jobs[0].ID
		st, again, err := follow(ctx, link, id, progress)
		switch {
		case err == nil && st.State == "failed":
			// The job itself failed — the campaign is broken (poison
			// cell, bad spec), not the transport. Do not resubmit.
			return campaign.Report{}, nil, fmt.Errorf("remote campaign failed: %s", st.Error)
		case err == nil && st.Report == nil:
			return campaign.Report{}, nil, fmt.Errorf("stream %s: done without report", id)
		case err == nil && !tracing:
			return *st.Report, nil, nil
		case err == nil:
			rc, _, err := link.Open(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
			if err != nil {
				return campaign.Report{}, nil, err
			}
			defer rc.Close()
			spans, err := trace.ReadSpans(rc)
			return *st.Report, spans, err
		case !again:
			return campaign.Report{}, nil, err
		}
		fmt.Fprintf(stderr, "coordinator hiccup (%v); resubmitting\n", err)
		if serr := bo.Sleep(ctx); serr != nil {
			return campaign.Report{}, nil, fmt.Errorf("coordinator %s: %w: %w", coordinator, serr, err)
		}
	}
}

// follow streams the job's NDJSON progress and returns its terminal
// status line. again marks an error worth a resubmit: the job id is
// unknown (the coordinator restarted and lost its job table), or the
// stream broke before its terminal line.
func follow(ctx context.Context, link fleet.Link, id string, progress io.Writer) (st remoteStatus, again bool, err error) {
	rc, code, err := link.Open(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return st, code == http.StatusNotFound, err
	}
	defer rc.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lastDone := -1
	for sc.Scan() {
		st = remoteStatus{}
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return st, true, fmt.Errorf("stream %s: bad line %.200q: %w", id, sc.Text(), err)
		}
		if progress != nil && st.Total > 0 && st.Done != lastDone {
			fmt.Fprintf(progress, "remote %s: %d/%d\n", id, st.Done, st.Total)
			lastDone = st.Done
		}
		if st.State == "done" || st.State == "failed" {
			return st, false, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, true, fmt.Errorf("stream %s interrupted: %w", id, err)
	}
	return st, true, fmt.Errorf("stream %s ended without a terminal state", id)
}
