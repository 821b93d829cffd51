// Package netsim models the cluster network as a full-bisection fabric of
// per-machine full-duplex NICs. Flows between machines receive max-min fair
// rates computed by water-filling over the sender-egress and receiver-ingress
// links; rates are recomputed whenever a flow starts or finishes.
//
// This is the fluid-flow analogue of the transport behaviour the paper's
// network monotasks see: a machine fetching shuffle data from many senders is
// limited by its own ingress link, and a sender serving many receivers
// divides its egress link among them (§3.3, "Network scheduler").
package netsim

import (
	"math"

	"repro/internal/resource"
	"repro/internal/sim"
)

// NIC is one machine's network interface: independent egress and ingress
// capacities in bytes/second (full duplex).
type NIC struct {
	id        int
	egressBW  float64
	ingressBW float64
	// base capacities, so dynamic degradation factors compose from the
	// configured rates rather than compounding.
	baseEgressBW  float64
	baseIngressBW float64

	// UtilOut tracks the egress direction's utilization (0..1).
	UtilOut resource.Tracker
	// UtilIn tracks the ingress direction's utilization (0..1).
	UtilIn resource.Tracker
	// BytesOutCum is the cumulative egress byte timeline (charged at
	// transfer start) — the OS-counter view of this interface.
	BytesOutCum resource.Tracker
	// BytesInCum is BytesOutCum's ingress counterpart.
	BytesInCum resource.Tracker

	bytesOut int64
	bytesIn  int64
}

// ID returns the NIC's machine index within its fabric.
func (n *NIC) ID() int { return n.id }

// EgressBW reports the outbound link capacity in bytes/second.
func (n *NIC) EgressBW() float64 { return n.egressBW }

// IngressBW reports the inbound link capacity in bytes/second.
func (n *NIC) IngressBW() float64 { return n.ingressBW }

// Flow is an in-flight transfer between two machines.
type Flow struct {
	src, dst  int
	remaining float64
	total     float64
	rate      float64
	done      func()
	seq       uint64
	active    bool
	// transient water-filling state, valid only inside rerate.
	frozen bool
	inComp bool
}

// Remaining reports the bytes left to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate reports the flow's current max-min fair rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Fabric connects n NICs with full bisection bandwidth: the only contention
// points are the NICs themselves.
type Fabric struct {
	eng        *sim.Engine
	nics       []*NIC
	order      []*Flow // active flows in deterministic (insertion) order
	pool       []*Flow // retired Flow structs recycled by Transfer
	nextSeq    uint64
	lastUpdate sim.Time
	completion sim.EventRef
	completeFn func() // f.complete, bound once so rerates never allocate

	// Scratch state reused across rerate calls so the hot path stays off the
	// allocator. Links are numbered 0..2n-1: machine i's egress link is i, its
	// ingress link is n+i.
	linkCap   []float64 // residual capacity per link during water-filling
	linkCnt   []int     // unfrozen flows per link during water-filling
	linkMark  []uint64  // epoch marks: linkMark[l] == markEpoch ⇒ l is in the component
	markEpoch uint64
	compLinks []int   // links in the current component, in discovery order
	compFlows []*Flow // flows in the current component, in f.order order
	finished  []*Flow // reusable scratch for complete()
}

// NewFabric creates a fabric of n NICs, each with the given full-duplex
// bandwidth in bytes/second.
func NewFabric(eng *sim.Engine, n int, linkBW float64) *Fabric {
	bws := make([]float64, n)
	for i := range bws {
		bws[i] = linkBW
	}
	return NewFabricBW(eng, bws)
}

// NewFabricBW creates a fabric with per-machine link bandwidths — the
// heterogeneity knob (a machine with a degraded NIC slows every flow it
// terminates).
func NewFabricBW(eng *sim.Engine, linkBWs []float64) *Fabric {
	if len(linkBWs) == 0 {
		panic("netsim: fabric needs machines")
	}
	f := &Fabric{eng: eng}
	f.completeFn = f.complete
	for i, bw := range linkBWs {
		if bw <= 0 {
			panic("netsim: fabric needs positive bandwidth")
		}
		f.nics = append(f.nics, &NIC{id: i, egressBW: bw, ingressBW: bw, baseEgressBW: bw, baseIngressBW: bw})
	}
	n := len(linkBWs)
	f.linkCap = make([]float64, 2*n)
	f.linkCnt = make([]int, 2*n)
	f.linkMark = make([]uint64, 2*n)
	return f
}

// NIC returns machine i's interface.
func (f *Fabric) NIC(i int) *NIC { return f.nics[i] }

// Size reports the number of machines.
func (f *Fabric) Size() int { return len(f.nics) }

// Transfer starts a flow of the given size from machine src to machine dst;
// done fires when the last byte arrives. Local transfers (src == dst) are
// free: data never leaves the machine, so done fires on the next dispatch.
func (f *Fabric) Transfer(src, dst int, bytes int64, done func()) *Flow {
	if src < 0 || src >= len(f.nics) || dst < 0 || dst >= len(f.nics) {
		panic("netsim: transfer endpoint out of range")
	}
	f.nextSeq++
	if src == dst || bytes <= 0 {
		// Degenerate transfers never enter the fabric, so the caller-held
		// struct is never recycled (a pool slot would alias a future flow).
		f.eng.After(0, done)
		return &Flow{src: src, dst: dst, remaining: float64(bytes), total: float64(bytes), done: done, seq: f.nextSeq}
	}
	var fl *Flow
	if n := len(f.pool); n > 0 {
		fl = f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
		*fl = Flow{}
	} else {
		fl = &Flow{}
	}
	fl.src, fl.dst = src, dst
	fl.remaining, fl.total = float64(bytes), float64(bytes)
	fl.done = done
	fl.seq = f.nextSeq
	f.advance()
	fl.active = true
	f.order = append(f.order, fl)
	now := f.eng.Now()
	srcNIC, dstNIC := f.nics[fl.src], f.nics[fl.dst]
	srcNIC.bytesOut += bytes
	srcNIC.BytesOutCum.Set(now, float64(srcNIC.bytesOut))
	dstNIC.bytesIn += bytes
	dstNIC.BytesInCum.Set(now, float64(dstNIC.bytesIn))
	f.beginRerate()
	f.touchFlow(fl)
	f.rerateTouched()
	return fl
}

// SetLinkSpeed rescales machine i's NIC to factor times its configured
// full-duplex bandwidth from the current virtual time onward (1 restores
// it). In-flight flows are drained at the old rates first, then every flow's
// max-min fair share is recomputed — the dynamic NIC-degradation knob.
func (f *Fabric) SetLinkSpeed(i int, factor float64) {
	if i < 0 || i >= len(f.nics) {
		panic("netsim: SetLinkSpeed machine out of range")
	}
	if factor <= 0 {
		panic("netsim: link speed factor must be positive")
	}
	f.advance()
	n := f.nics[i]
	n.egressBW = n.baseEgressBW * factor
	n.ingressBW = n.baseIngressBW * factor
	f.beginRerate()
	f.touchLink(i)
	f.touchLink(len(f.nics) + i)
	f.rerateTouched()
}

// Cancel abandons an in-flight flow.
func (f *Fabric) Cancel(fl *Flow) {
	if !fl.active {
		return
	}
	f.advance()
	fl.active = false
	f.compactOrder()
	f.beginRerate()
	f.touchFlow(fl)
	f.rerateTouched()
}

// ActiveFlows reports the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.order) }

// advance drains each flow by rate·dt.
func (f *Fabric) advance() {
	now := f.eng.Now()
	dt := float64(now - f.lastUpdate)
	f.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range f.order {
		fl.remaining -= fl.rate * dt
		// Clamp float residue relative to the flow's size: rate changes on
		// every membership change, and the subtraction errors accumulate
		// with the byte count. An absolute epsilon eventually leaves a
		// residue whose drain time underflows the clock's resolution,
		// rescheduling a zero-length completion event forever.
		if fl.remaining < 1e-9*fl.total+1e-9 {
			fl.remaining = 0
		}
	}
}

// beginRerate opens a new rerate scope: links touched with touchLink or
// touchFlow before the next rerateTouched seed the connected component whose
// flow rates must be re-solved.
func (f *Fabric) beginRerate() {
	f.markEpoch++
	f.compLinks = f.compLinks[:0]
}

// touchLink marks link l (machine i egress = i, ingress = n+i) as changed.
func (f *Fabric) touchLink(l int) {
	if f.linkMark[l] != f.markEpoch {
		f.linkMark[l] = f.markEpoch
		f.compLinks = append(f.compLinks, l)
	}
}

// touchFlow marks both links a flow traverses as changed.
func (f *Fabric) touchFlow(fl *Flow) {
	f.touchLink(fl.src)
	f.touchLink(len(f.nics) + fl.dst)
}

// rerateTouched recomputes max-min fair rates by water-filling, restricted to
// the connected component(s) of the links touched since beginRerate, then
// updates the affected NICs' utilization trackers and reschedules the next
// completion event.
//
// The restriction is exact, not approximate: max-min fairness decomposes over
// connected components of the bipartite flow/link graph, because water-filling
// in one component never changes residual capacity in another. A membership
// or capacity change therefore only perturbs rates of flows reachable from
// the changed links, and those are exactly the flows this solves for. Rates
// of all other flows are left untouched, which is what makes a rerate cheap
// when the fabric carries many unrelated transfers.
func (f *Fabric) rerateTouched() {
	n := len(f.nics)
	// Close the component: any flow on a marked link joins, and brings its
	// other link with it. Pass-based to fixpoint; the final collection pass
	// gathers component flows in f.order order, preserving the deterministic
	// freeze order of the unrestricted algorithm.
	for changed := true; changed; {
		changed = false
		for _, fl := range f.order {
			if fl.inComp {
				continue
			}
			if f.linkMark[fl.src] == f.markEpoch || f.linkMark[n+fl.dst] == f.markEpoch {
				fl.inComp = true
				f.touchLink(fl.src)
				f.touchLink(n + fl.dst)
				changed = true
			}
		}
	}
	f.compFlows = f.compFlows[:0]
	for _, fl := range f.order {
		if fl.inComp {
			f.compFlows = append(f.compFlows, fl)
		}
	}

	// Water-fill over the component only. Residual capacity per link; links
	// are (machine, direction).
	for _, l := range f.compLinks {
		if l < n {
			f.linkCap[l] = f.nics[l].egressBW
		} else {
			f.linkCap[l] = f.nics[l-n].ingressBW
		}
		f.linkCnt[l] = 0
	}
	for _, fl := range f.compFlows {
		fl.rate = 0
		f.linkCnt[fl.src]++
		f.linkCnt[n+fl.dst]++
	}
	unfrozen := len(f.compFlows)
	for unfrozen > 0 {
		// Find the bottleneck link: smallest fair share.
		share := math.MaxFloat64
		for _, l := range f.compLinks {
			if f.linkCnt[l] > 0 {
				if s := f.linkCap[l] / float64(f.linkCnt[l]); s < share {
					share = s
				}
			}
		}
		// Freeze every flow traversing a link at exactly that share.
		progress := false
		for _, fl := range f.compFlows {
			if fl.frozen {
				continue
			}
			se := f.linkCap[fl.src] / float64(f.linkCnt[fl.src])
			si := f.linkCap[n+fl.dst] / float64(f.linkCnt[n+fl.dst])
			if se <= share*(1+1e-12) || si <= share*(1+1e-12) {
				fl.rate = share
				fl.frozen = true
				unfrozen--
				progress = true
				f.linkCap[fl.src] -= share
				f.linkCap[n+fl.dst] -= share
				f.linkCnt[fl.src]--
				f.linkCnt[n+fl.dst]--
			}
		}
		if !progress {
			panic("netsim: water-filling failed to make progress")
		}
	}

	// Utilization changed only on component links; every flow on such a link
	// is in the component, so summing component flows is the full picture.
	for _, l := range f.compLinks {
		f.linkCap[l] = 0 // reuse as the per-link utilization accumulator
	}
	for _, fl := range f.compFlows {
		f.linkCap[fl.src] += fl.rate
		f.linkCap[n+fl.dst] += fl.rate
		fl.frozen = false
		fl.inComp = false
	}
	now := f.eng.Now()
	for _, l := range f.compLinks {
		if l < n {
			nic := f.nics[l]
			nic.UtilOut.Set(now, f.linkCap[l]/nic.egressBW)
		} else {
			nic := f.nics[l-n]
			nic.UtilIn.Set(now, f.linkCap[l]/nic.ingressBW)
		}
	}

	// Next completion: rates outside the component are unchanged, but the
	// soonest finisher can be anywhere, so scan all flows (cheap: no allocs).
	f.eng.Cancel(f.completion)
	f.completion = sim.EventRef{}
	soonest := sim.Time(math.MaxFloat64)
	for _, fl := range f.order {
		if fl.rate <= 0 {
			continue
		}
		t := sim.Duration(fl.remaining / fl.rate)
		if t < soonest {
			soonest = t
		}
	}
	if soonest < sim.Time(math.MaxFloat64) {
		f.completion = f.eng.After(soonest, f.completeFn)
	}
}

// complete retires flows that have drained, then recomputes rates.
func (f *Fabric) complete() {
	f.completion = sim.EventRef{}
	f.advance()
	finished := f.finished[:0]
	for _, fl := range f.order {
		if fl.remaining == 0 {
			finished = append(finished, fl)
			fl.active = false
		}
	}
	if len(finished) == 0 && len(f.order) > 0 {
		// Float residue left the due flow fractionally short: retire the
		// minimum-remaining flow rather than rescheduling a drain whose
		// duration can underflow the clock's resolution (see the matching
		// guard in resource.server.complete).
		min := f.order[0]
		for _, fl := range f.order[1:] {
			if fl.rate > 0 && (min.rate <= 0 || fl.remaining/fl.rate < min.remaining/min.rate) {
				min = fl
			}
		}
		min.remaining = 0
		min.active = false
		finished = append(finished, min)
	}
	f.compactOrder()
	f.beginRerate()
	for _, fl := range finished {
		f.touchFlow(fl)
	}
	f.rerateTouched()
	// Simultaneously-finishing flows retire in Transfer order (f.order is
	// insertion-ordered): completion order drives requester-side admission
	// chains, and Transfer order is deterministic.
	for _, fl := range finished {
		fl.done()
	}
	// Recycle after the callbacks: completed flows are no longer reachable
	// from f.order, and production code never cancels a finished flow.
	for i, fl := range finished {
		fl.done = nil
		f.pool = append(f.pool, fl)
		finished[i] = nil
	}
	f.finished = finished[:0]
}

// compactOrder drops inactive flows from the deterministic iteration slice.
func (f *Fabric) compactOrder() {
	kept := f.order[:0]
	for _, fl := range f.order {
		if fl.active {
			kept = append(kept, fl)
		}
	}
	for i := len(kept); i < len(f.order); i++ {
		f.order[i] = nil
	}
	f.order = kept
}
