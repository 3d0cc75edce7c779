// Package collective implements the communication collectives the paper's
// systems rely on (the NCCL layer): a multi-channel ring all-gather, a
// uniform all-to-all, and a dynamic-shape alltoallv — all emitted as task
// graphs on a cluster fabric so they contend for the same NVSwitch ports
// and NICs as everything else in the simulation.
//
// The multi-channel ring model mirrors how NCCL extracts a node's
// aggregate NIC bandwidth: the payload splits across one channel per NIC,
// and each channel's ring crosses nodes through a different NIC. An
// efficiency factor derates achievable bus bandwidth, matching measured
// collective performance on RoCE fabrics (~45–65% of line rate).
package collective

import (
	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

// allGatherEff is the fraction of aggregate NIC bandwidth an optimized
// NCCL all-gather achieves in practice on RoCE fabrics (bus-bandwidth
// measurements typically land between 0.45 and 0.65). Calibrated so that
// LLaMA CP's speedup over TE CP matches the paper's 1.45–1.65× band.
const allGatherEff = 0.55

// AllGather emits an all-gather of bytesPerRank from every rank to every
// rank and returns the completion barrier. Modeled at the bandwidth
// level: each node's NICs carry the (N−1)/N cross-node share at
// allGatherEff, one channel per NIC, and every rank ingests the full
// remote volume over its NVSwitch port. Latency per channel hop is
// included via the fabric's link latencies.
func AllGather(f *cluster.Fabric, label sim.Label, bytesPerRank float64, deps ...*sim.Task) *sim.Task {
	c := f.C
	world := c.World()
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	if world <= 1 || bytesPerRank <= 0 {
		return done
	}
	total := bytesPerRank * float64(world)
	if c.Nodes > 1 {
		nodeShare := total * float64(c.Nodes-1) / float64(c.Nodes) / allGatherEff
		perNIC := nodeShare / float64(c.NICsPerNode)
		for n := 0; n < c.Nodes; n++ {
			anchor := c.RanksOfNode(n)[0]
			for k := 0; k < c.NICsPerNode; k++ {
				nic := n*c.NICsPerNode + k
				rx := f.E.Transfer(label.With(sim.SegNodeChannel, n, k).With(sim.SegRx),
					sim.KindInterComm, anchor, f.NICRecv[nic], perNIC)
				rx.After(deps...)
				tx := f.E.Transfer(label.With(sim.SegNodeChannel, n, k).With(sim.SegTx),
					sim.KindInterComm, anchor, f.NICSend[nic], perNIC)
				tx.After(deps...)
				done.After(rx, tx)
			}
		}
	}
	// NVSwitch collectives run close to peak; derate mildly.
	perRank := total * float64(world-1) / float64(world) / 0.8
	for rank := 0; rank < world; rank++ {
		rx := f.E.Transfer(label.With(sim.SegRankNVS, rank),
			sim.KindIntraComm, rank, f.IntraRecv[rank], perRank)
		rx.After(deps...)
		done.After(rx)
	}
	return done
}

// AllToAll emits a uniform all-to-all in which rank r exchanges vol[r]
// bytes with the rest of the world: the (N−1)/N cross-node share rides
// the rank's NIC in both directions and the rest leaves over its NVSwitch
// port. A rank whose volume is ≤ 0 emits nothing, so a world whose
// volumes are all zero reduces to the returned "<label>/done" barrier.
func AllToAll(f *cluster.Fabric, label sim.Label, vol []float64, deps ...*sim.Task) *sim.Task {
	c := f.C
	done := f.E.Barrier(label.With(sim.SegDone), 0)
	done.After(deps...)
	crossFrac := 0.0
	if c.Nodes > 1 {
		crossFrac = float64(c.Nodes-1) / float64(c.Nodes)
	}
	for rank, v := range vol {
		if v <= 0 {
			continue
		}
		if crossFrac > 0 {
			nic := c.NICOf(rank)
			tx := f.E.Transfer(label.With(sim.SegTxAt, rank),
				sim.KindInterComm, rank, f.NICSend[nic], v*crossFrac)
			tx.After(deps...)
			rx := f.E.Transfer(label.With(sim.SegRxAt, rank),
				sim.KindInterComm, rank, f.NICRecv[nic], v*crossFrac)
			rx.After(deps...)
			done.After(tx, rx)
		}
		intra := f.E.Transfer(label.With(sim.SegNVSAt, rank),
			sim.KindIntraComm, rank, f.IntraSend[rank], v*(1-crossFrac))
		intra.After(deps...)
		done.After(intra)
	}
	return done
}

// Transfer is one point-to-point element of an alltoallv.
type Transfer struct {
	From, To int
	Bytes    float64
}

// AllToAllV emits a dynamic-shape all-to-all: every listed transfer is a
// point-to-point send; the barrier completes when all have arrived. This
// is the primitive the remapping layer executes (§4 "dynamic-shape
// alltoallv primitive that supports both forward and backward passes").
func AllToAllV(f *cluster.Fabric, label sim.Label, transfers []Transfer, deps ...*sim.Task) *sim.Task {
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	for i, tr := range transfers {
		if tr.Bytes <= 0 || tr.From == tr.To {
			continue
		}
		done.After(f.Send(label.With(sim.SegElement, i, tr.From, tr.To),
			tr.From, tr.To, tr.Bytes, deps...))
	}
	return done
}
