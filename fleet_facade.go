package pilotrf

import (
	"context"

	"pilotrf/internal/campaign"
	"pilotrf/internal/fleet"
)

// The distributed-campaign layer: a coordinator that shards
// fault-campaign cells across HTTP-registered workers under expiring
// leases, the worker loop that executes them, and the shared
// retry/backoff policy both sides run on. cmd/pilotserve -role
// coordinator|worker wires these; the facade re-exports them so library
// users can embed a fleet in their own processes. An N-worker fleet's
// report is byte-identical to a standalone run of the same spec.
type (
	// FleetCoordinator shards campaigns into leased cells over
	// registered workers, re-queues cells whose leases expire,
	// distinguishes flaky workers from poison cells, and resumes
	// completed cells from its cache after a crash.
	FleetCoordinator = fleet.Coordinator
	// FleetConfig sizes a FleetCoordinator (cache, lease TTL, poll
	// interval, exclusion and poison thresholds, metrics, logging).
	FleetConfig = fleet.Config
	// FleetRunOptions configures one coordinated campaign run
	// (progress callback, span recorder).
	FleetRunOptions = fleet.RunOptions
	// FleetWorkerConfig configures RunFleetWorker (coordinator URL,
	// local parallelism, retry policy, metrics, logging).
	FleetWorkerConfig = fleet.WorkerConfig
	// FleetHealth is the coordinator's live topology snapshot
	// (workers live/lost, leases, cells pending/re-queued/resumed).
	FleetHealth = fleet.Health
	// FleetLease is the wire message granting one campaign cell to a
	// worker.
	FleetLease = fleet.Lease
	// RetryPolicy is the shared retry/backoff helper: exponential with
	// decorrelated jitter, per-delay cap, and a total sleep budget.
	RetryPolicy = fleet.Policy
	// RetryBackoff is one retry sequence under a RetryPolicy.
	RetryBackoff = fleet.Backoff
)

// FleetWireSchema versions every fleet wire message.
const FleetWireSchema = fleet.WireSchema

// NewFleetCoordinator builds a coordinator and starts its lease
// janitor; Close it when done.
func NewFleetCoordinator(cfg FleetConfig) *FleetCoordinator { return fleet.NewCoordinator(cfg) }

// RunFleetWorker registers with a coordinator and executes leased cells
// until ctx is cancelled.
func RunFleetWorker(ctx context.Context, cfg FleetWorkerConfig) error {
	return fleet.RunWorker(ctx, cfg)
}

// NewCampaignPlan compiles a spec into its canonical cell enumeration —
// the sharding projection the fleet dispatches and reassembles by.
func NewCampaignPlan(spec CampaignSpec) (*campaign.Plan, error) { return campaign.NewPlan(spec) }
