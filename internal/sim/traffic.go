package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/voting"
)

// TrafficConfig parameterises a concrete traffic simulation: the real
// consistency protocol runs over the simulated network while sites fail
// and repair, and every high-level transmission is counted.
type TrafficConfig struct {
	// Scheme selects the consistency algorithm.
	Scheme core.SchemeKind
	// Sites is the number of replica sites.
	Sites int
	// Rho is the failure-to-repair rate ratio (mu is fixed at 1).
	Rho float64
	// Mode selects the §5 network flavour; zero means multicast.
	Mode simnet.Mode
	// ReadRatio is reads per write; zero means all writes, and 2.5 is the
	// ratio the 4.2 BSD trace study [9] observed. Each operation is a
	// read with probability ReadRatio/(ReadRatio+1), on a block drawn
	// uniformly: the access pattern the §5 cost formulas assume.
	ReadRatio float64
	// Ops is the number of operations to issue; zero means 2000.
	Ops int
	// OpRate is operations per unit of simulated time; zero means 200
	// (operations are much more frequent than failures, as §5.1 argues
	// when discounting recovery traffic).
	OpRate float64
	// Seed makes the run reproducible.
	Seed int64
	// Geometry is the device shape; zero value uses a small test device.
	Geometry block.Geometry
	// Observer, when set, instruments the cluster: scheme counters,
	// transport metering, and optional tracing. Nil runs unobserved.
	Observer *obs.Observer
}

func (c *TrafficConfig) applyDefaults() {
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.OpRate == 0 {
		c.OpRate = 200
	}
	if c.Geometry == (block.Geometry{}) {
		c.Geometry = block.Geometry{BlockSize: 64, NumBlocks: 16}
	}
}

// TrafficResult reports measured per-operation transmission counts.
type TrafficResult struct {
	// Writes and Reads are the numbers of successful operations.
	Writes, Reads int
	// Denied counts operations rejected for lack of quorum/availability,
	// or because no site could even attempt them.
	Denied int
	// PerWrite and PerRead are mean transmissions per successful
	// operation.
	PerWrite, PerRead float64
	// DeniedTransmissions is traffic spent on unsuccessful attempts
	// (§5.2 notes voting pays this; the available copy schemes do not).
	DeniedTransmissions uint64
	// Recoveries counts sites brought back to available; PerRecovery is
	// mean transmissions per recovered site, including any retries while
	// the scheme had to wait.
	Recoveries  int
	PerRecovery float64
	// OpAvailability is the fraction of operations that succeeded — an
	// operation-level availability measure.
	OpAvailability float64
	// NetStats is the network's final counter snapshot, including the
	// per-operation transmission buckets the conformance checker feeds on.
	NetStats simnet.Stats `json:"net_stats"`
}

// SimulateTraffic drives the real protocol stack through a workload
// interleaved with site failures and repairs, and reports measured
// traffic. It validates the §5 analytical cost model against running
// code. The caller's ctx bounds the whole run: cancellation reaches
// every block operation and recovery drive through the controllers.
func SimulateTraffic(ctx context.Context, cfg TrafficConfig) (TrafficResult, error) {
	cfg.applyDefaults()
	if cfg.ReadRatio < 0 {
		return TrafficResult{}, fmt.Errorf("sim: read ratio %v must be non-negative", cfg.ReadRatio)
	}
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    cfg.Sites,
		Geometry: cfg.Geometry,
		Scheme:   cfg.Scheme,
		Mode:     cfg.Mode,
		Observer: cfg.Observer,
		// The simulation's purpose is validating the §5 cost formulas, so
		// voting writes run the paper's literal two-round shape rather
		// than the prepare-write fast path.
		VotingOptions: []voting.Option{voting.WithTwoRoundWrites()},
	})
	if err != nil {
		return TrafficResult{}, err
	}
	// Blocks and op kinds come from streams of their own, so each is
	// reproducible from the seed alone.
	blocks := rand.New(rand.NewSource(cfg.Seed + 1))
	kinds := rand.New(rand.NewSource(cfg.Seed + 2))
	proc, err := NewFailureProcess(cfg.Sites, cfg.Rho, 1, cfg.Seed+3)
	if err != nil {
		return TrafficResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	net := cl.Network()

	var (
		res       TrafficResult
		writeTraf uint64
		readTraf  uint64
		recovTraf uint64
		now       float64
		pendingEv *Event
		haveEv    bool
		seq       uint64
		payload   = make([]byte, cfg.Geometry.BlockSize)
	)
	nextEvent := func() {
		e, ok := proc.Next()
		if ok {
			pendingEv, haveEv = &e, true
		} else {
			pendingEv, haveEv = nil, false
		}
	}
	nextEvent()

	applyEvent := func(e Event) error {
		id := protocol.SiteID(e.Site)
		st, err := cl.State(id)
		if err != nil {
			return err
		}
		switch e.Kind {
		case EventFail:
			if st != protocol.StateFailed {
				if err := cl.Fail(id); err != nil {
					return err
				}
			}
		case EventRepair:
			if st == protocol.StateFailed {
				before := cl.AvailableCount()
				start := net.Transmissions()
				if err := cl.Restart(ctx, id); err != nil {
					return err
				}
				recovTraf += net.Transmissions() - start
				res.Recoveries += cl.AvailableCount() - before
			}
		}
		return nil
	}

	eligible := func() []protocol.SiteID {
		var out []protocol.SiteID
		for i := 0; i < cfg.Sites; i++ {
			id := protocol.SiteID(i)
			st, _ := cl.State(id)
			if st == protocol.StateAvailable {
				out = append(out, id)
			}
		}
		return out
	}

	for op := 0; op < cfg.Ops; op++ {
		now += Exp(rng, cfg.OpRate)
		for haveEv && pendingEv.At <= now {
			if err := applyEvent(*pendingEv); err != nil {
				return TrafficResult{}, err
			}
			nextEvent()
		}
		read := kinds.Float64() < cfg.ReadRatio/(cfg.ReadRatio+1)
		idx := block.Index(blocks.Intn(cfg.Geometry.NumBlocks))
		sites := eligible()
		if len(sites) == 0 {
			res.Denied++
			continue
		}
		at := sites[rng.Intn(len(sites))]
		dev, err := cl.Device(at)
		if err != nil {
			return TrafficResult{}, err
		}
		start := net.Transmissions()
		if read {
			_, err = dev.ReadBlock(ctx, idx)
			if err == nil {
				res.Reads++
				readTraf += net.Transmissions() - start
			}
		} else {
			seq++
			binary.LittleEndian.PutUint64(payload, seq)
			err = dev.WriteBlock(ctx, idx, payload)
			if err == nil {
				res.Writes++
				writeTraf += net.Transmissions() - start
			}
		}
		if err != nil {
			if errors.Is(err, scheme.ErrNoQuorum) || errors.Is(err, scheme.ErrNotAvailable) {
				res.Denied++
				res.DeniedTransmissions += net.Transmissions() - start
				continue
			}
			return TrafficResult{}, fmt.Errorf("sim: op %d at %v: %w", op, at, err)
		}
	}

	if res.Writes > 0 {
		res.PerWrite = float64(writeTraf) / float64(res.Writes)
	}
	if res.Reads > 0 {
		res.PerRead = float64(readTraf) / float64(res.Reads)
	}
	if res.Recoveries > 0 {
		res.PerRecovery = float64(recovTraf) / float64(res.Recoveries)
	}
	total := res.Writes + res.Reads + res.Denied
	if total > 0 {
		res.OpAvailability = float64(res.Writes+res.Reads) / float64(total)
	}
	res.NetStats = net.Stats()
	return res, nil
}
