package runner

import (
	"context"
	"encoding/json"
	"fmt"

	"treadmill/internal/anatomy"
	"treadmill/internal/fleet"
	"treadmill/internal/fleet/wire"
)

// StudyCellKind tags fleet cells that carry one factorial-study
// experiment.
const StudyCellKind = "study"

// studyCellPayload is the wire description of one experiment: the factor
// levels and the schedule-derived seed. The agent holds the full Study
// configuration locally, so the cell only needs what varies per run.
type studyCellPayload struct {
	Levels []int  `json:"levels"`
	Seed   uint64 `json:"seed"`
}

// studyCellResult is the wire form of a Sample. Parallel slices instead
// of a float-keyed map: JSON objects cannot key on float64, and Go's
// float64 JSON round-trip is exact, so estimates survive the wire
// bit-identically (what the fleet/single-process parity guarantee rests
// on).
type studyCellResult struct {
	Levels    []int     `json:"levels"`
	Quantiles []float64 `json:"quantiles"`
	Estimates []float64 `json:"estimates"`
}

// StudyCellRunner executes study cells on a fleet agent. The Study must
// be configured identically on every agent and on the coordinator (same
// Base, Factors, rates, durations, Quantiles): the cell payload carries
// only levels and seed, and each experiment is a deterministic function
// of (Study config, levels, seed) — which is exactly why a fleet
// campaign reproduces a single-process campaign bit for bit.
type StudyCellRunner struct {
	Study *Study
}

// RunCell implements fleet.CellRunner.
func (r *StudyCellRunner) RunCell(ctx context.Context, cell wire.Cell, progress fleet.ProgressFunc) (wire.CellDone, error) {
	if cell.Kind != StudyCellKind {
		return wire.CellDone{}, fmt.Errorf("runner: unexpected cell kind %q", cell.Kind)
	}
	var p studyCellPayload
	if err := json.Unmarshal(cell.Payload, &p); err != nil {
		return wire.CellDone{}, fmt.Errorf("runner: decode study cell: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return wire.CellDone{}, err
	}
	sample, err := r.Study.RunConfig(p.Levels, p.Seed)
	if err != nil {
		return wire.CellDone{}, err
	}
	out := studyCellResult{
		Levels:    sample.Levels,
		Quantiles: append([]float64(nil), r.Study.Quantiles...),
		Estimates: make([]float64, len(r.Study.Quantiles)),
	}
	for i, q := range r.Study.Quantiles {
		out.Estimates[i] = sample.Quantiles[q]
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return wire.CellDone{}, err
	}
	return wire.CellDone{Payload: raw}, nil
}

// FleetCells expands the study into its randomized schedule of fleet
// cells — the exact schedule Run would execute locally: the same
// Permutations × Replicates expansion, the same Seed-driven shuffle, the
// same per-index seed derivation. Cell IDs encode the schedule index, so
// they are idempotent across re-dispatch after agent loss.
func (s *Study) FleetCells() ([]wire.Cell, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := s.campaign()
	schedule := c.schedule()
	cells := make([]wire.Cell, len(schedule))
	for i, levels := range schedule {
		raw, err := json.Marshal(studyCellPayload{Levels: levels, Seed: c.cellSeed(i)})
		if err != nil {
			return nil, err
		}
		cells[i] = wire.Cell{
			ID:      fmt.Sprintf("study-%d-%s", i, LevelsKey(levels)),
			Seq:     i,
			Kind:    StudyCellKind,
			Payload: raw,
		}
	}
	return cells, nil
}

// RunFleet executes the campaign across a fleet instead of the local
// worker pool: cells are sharded over the coordinator's live agents
// (queue mode — agents pull the next cell as they finish), then the shared
// engine commits their results in schedule order with a cell function
// that only decodes what the agent returned. Because every experiment is a
// deterministic function of (config, levels, seed) and estimates cross the
// wire with exact float64 round-tripping, the returned samples are
// bit-identical to s.Run with the same Seed, for any fleet size and any
// completion order.
//
// CollectAnatomy is not supported over a fleet: a cell's result carries
// only its quantile estimates. Per-request phase vectors were never
// shippable; the experiment's O(bins) aggregate that Run now commits would
// be, but it has no wire form yet. Configure it off for fleet campaigns.
func (s *Study) RunFleet(ctx context.Context, co *fleet.Coordinator) (*Result, error) {
	if s.CollectAnatomy {
		return nil, fmt.Errorf("runner: CollectAnatomy is not supported over a fleet")
	}
	cells, err := s.FleetCells()
	if err != nil {
		return nil, err
	}
	results, err := co.RunCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	return s.campaign().run(ctx, func(_ context.Context, idx int, _ []int, _ uint64, _ func(float64, anatomy.Vec)) (Sample, error) {
		var cr studyCellResult
		if err := json.Unmarshal(results[idx].Done.Payload, &cr); err != nil {
			return Sample{}, fmt.Errorf("decode result for cell %q: %w", cells[idx].ID, err)
		}
		if len(cr.Estimates) != len(cr.Quantiles) {
			return Sample{}, fmt.Errorf("cell %q returned %d estimates for %d quantiles", cells[idx].ID, len(cr.Estimates), len(cr.Quantiles))
		}
		sample := Sample{Levels: cr.Levels, Quantiles: make(map[float64]float64, len(cr.Quantiles))}
		for j, q := range cr.Quantiles {
			sample.Quantiles[q] = cr.Estimates[j]
		}
		return sample, nil
	})
}
