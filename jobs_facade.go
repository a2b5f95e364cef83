package pilotrf

import (
	"context"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
)

// The simulation-service layer: a deterministic worker pool, a
// content-addressed result cache, and the fault-campaign engine built
// on both. cmd/faultcampaign, cmd/experiments, cmd/pilotsim -parallel,
// and the cmd/pilotserve job server all run on these primitives; the
// facade re-exports them so library users can embed the same engine.
type (
	// WorkerPool runs independent tasks from one FIFO queue, merging
	// results in canonical submission order — parallel runs produce
	// byte-identical output to sequential ones.
	WorkerPool = jobs.Pool
	// PoolConfig sizes a WorkerPool (workers, optional metrics registry).
	PoolConfig = jobs.Config
	// PoolTask is one unit of pool work.
	PoolTask = jobs.Task
	// PoolBatch tracks one submitted slice of tasks.
	PoolBatch = jobs.Batch
	// ResultCache persists computation results on disk under
	// content-addressed keys; corrupt entries degrade to cache misses.
	ResultCache = jobs.Cache
	// ResultCacheStats counts cache hits, misses, corruptions, writes.
	ResultCacheStats = jobs.CacheStats
	// CacheKeyBuilder derives content-addressed cache keys from named
	// fields (FNV-1a with the preimage kept for collision detection).
	CacheKeyBuilder = jobs.KeyBuilder

	// CampaignSpec declares a fault-injection campaign grid; zero
	// fields select the cmd/faultcampaign defaults.
	CampaignSpec = campaign.Spec
	// CampaignOptions wires a campaign onto a pool, an optional cache,
	// an optional progress callback and an optional span recorder.
	CampaignOptions = campaign.Options
	// CampaignReport is the versioned campaign result
	// (pilotrf-faultcampaign/v1), byte-reproducible from the spec.
	CampaignReport = campaign.Report
	// CampaignCell is one (design, protection, workload) result.
	CampaignCell = campaign.Cell
	// CampaignOutcomes counts trial classifications within a cell.
	CampaignOutcomes = campaign.Outcomes
)

// CampaignSchema identifies the campaign report format.
const CampaignSchema = campaign.Schema

// NewWorkerPool starts a worker pool; Close it when done.
func NewWorkerPool(cfg PoolConfig) (*WorkerPool, error) { return jobs.New(cfg) }

// OpenResultCache opens (creating if needed) a content-addressed result
// cache rooted at dir.
func OpenResultCache(dir string) (*ResultCache, error) { return jobs.OpenCache(dir) }

// DefaultWorkers is the conventional pool size: one worker per core.
func DefaultWorkers() int { return jobs.DefaultWorkers() }

// RunFaultCampaign executes a classification campaign on opt.Pool,
// sharing one golden run per (design, workload) across every protection
// scheme's trials and resuming from opt.Cache when present. Equal specs
// produce byte-identical reports regardless of worker count.
func RunFaultCampaign(ctx context.Context, spec CampaignSpec, opt CampaignOptions) (CampaignReport, error) {
	return campaign.Run(ctx, spec, opt)
}
