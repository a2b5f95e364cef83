package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/fleet"
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

// remoteSubmitResponse mirrors pilotserve's POST /v1/jobs response.
type remoteSubmitResponse struct {
	Jobs []struct {
		ID    string `json:"id"`
		Units int    `json:"units"`
	} `json:"jobs"`
}

// runRemote executes the campaign on a pilotserve coordinator instead
// of the local pool: submit the spec as a one-job batch, stream its
// NDJSON progress to completion, and return the report — which is
// byte-identical to a local run of the same spec, that being the
// fleet's core guarantee.
//
// The client survives a coordinator restart: a connection refused, a
// broken stream, or a 404 for the in-flight job id (the restarted
// process minted fresh ids) all resubmit the spec under the shared
// retry/backoff policy. Cells finished before the crash replay from the
// coordinator's cache, so a resubmission redoes only the gap.
func runRemote(coordinator string, spec campaign.Spec, progress io.Writer) (campaign.Report, string, error) {
	body, err := json.Marshal(struct {
		Jobs []campaign.Spec `json:"jobs"`
	}{Jobs: []campaign.Spec{spec}})
	if err != nil {
		return campaign.Report{}, "", err
	}
	// One budget spans the whole conversation with the coordinator:
	// submissions, stream re-attachments, and resubmissions after a
	// restart all draw from it, so a dead coordinator fails the client
	// in bounded time.
	bo := fleet.Policy{Budget: 2 * time.Minute}.Start()
	for {
		jobID, err := submitRemote(coordinator, body)
		if err == nil {
			var rep *campaign.Report
			rep, err = streamRemote(coordinator, jobID, progress)
			if err == nil {
				return *rep, jobID, nil
			}
			var terminal *remoteJobError
			if errors.As(err, &terminal) {
				// The job itself failed — the campaign is broken (poison
				// cell, bad spec), not the transport. Do not resubmit.
				return campaign.Report{}, "", fmt.Errorf("remote campaign failed: %s", terminal.msg)
			}
		}
		d, ok := bo.Next()
		if !ok {
			return campaign.Report{}, "", fmt.Errorf("coordinator %s unreachable: %w", coordinator, err)
		}
		fmt.Fprintf(os.Stderr, "coordinator hiccup (%v); retrying in %v\n", err, d)
		time.Sleep(d)
	}
}

// remoteJobError marks a terminal job failure reported by the
// coordinator — retrying would fail identically.
type remoteJobError struct{ msg string }

// Error returns the coordinator's failure message verbatim.
func (e *remoteJobError) Error() string { return e.msg }

// submitRemote posts the one-job batch and returns the job id.
func submitRemote(coordinator string, body []byte) (string, error) {
	resp, err := http.Post(coordinator+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, firstLine(buf))
	}
	var sub remoteSubmitResponse
	if err := json.Unmarshal(buf, &sub); err != nil || len(sub.Jobs) != 1 || sub.Jobs[0].ID == "" {
		return "", fmt.Errorf("submit: malformed response %q", firstLine(buf))
	}
	return sub.Jobs[0].ID, nil
}

// streamRemote follows the job's NDJSON progress to its terminal line.
// A nil error means the report is complete; *remoteJobError means the
// job failed for real; any other error is a transport problem worth a
// resubmit.
func streamRemote(coordinator, jobID string, progress io.Writer) (*campaign.Report, error) {
	resp, err := http.Get(coordinator + "/v1/jobs/" + jobID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The coordinator restarted and lost its in-memory job table;
		// the caller resubmits (finished cells replay from its cache).
		return nil, fmt.Errorf("job %s unknown after coordinator restart", jobID)
	}
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("stream %s: HTTP %d: %s", jobID, resp.StatusCode, firstLine(buf))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lastDone := -1
	for sc.Scan() {
		var st remoteStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("stream %s: bad line %q: %w", jobID, sc.Text(), err)
		}
		if progress != nil && st.Total > 0 && st.Done != lastDone {
			fmt.Fprintf(progress, "remote %s: %d/%d\n", jobID, st.Done, st.Total)
			lastDone = st.Done
		}
		switch st.State {
		case "done":
			if st.Report == nil {
				return nil, fmt.Errorf("stream %s: done without report", jobID)
			}
			return st.Report, nil
		case "failed":
			return nil, &remoteJobError{msg: st.Error}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream %s interrupted: %w", jobID, err)
	}
	return nil, fmt.Errorf("stream %s ended without a terminal state", jobID)
}

// fetchRemoteTrace downloads the finished job's span tree from the
// coordinator in the requested format ("" for pilotrf-spans/v1 NDJSON,
// "perfetto" for trace_event JSON) and writes it to path.
func fetchRemoteTrace(coordinator, jobID, format, path string) error {
	url := coordinator + "/v1/jobs/" + jobID + "/trace"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("trace %s: HTTP %d: %s", jobID, resp.StatusCode, firstLine(buf))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
