package noc

import (
	"fmt"
	"slices"

	"nocbt/internal/flit"
)

// inVC is one virtual-channel buffer of an input port, with the per-packet
// wormhole state of the packet currently at its head. The buffer is a fixed
// ring of BufDepth slots, so steady-state traffic performs no allocation.
type inVC struct {
	buf  []*flit.Flit
	head int
	n    int
	// route is the output port of the packet at the queue head (-1 until
	// route computation runs on its head flit).
	route int
	// vcLo/vcHi bound the downstream VCs the packet may be allocated —
	// the topology's VC class for this hop, set alongside route. A
	// single-class topology (and any sink port) spans the full VC range.
	vcLo, vcHi int
	// outVC is the downstream VC granted to that packet (-1 until VC
	// allocation succeeds).
	outVC int
}

// front returns the flit at the ring head; the caller must check n > 0.
func (vc *inVC) front() *flit.Flit { return vc.buf[vc.head] }

// pop removes the head flit.
func (vc *inVC) pop() {
	vc.buf[vc.head] = nil
	vc.head++
	if vc.head == len(vc.buf) {
		vc.head = 0
	}
	vc.n--
}

// inPort is a router input port: one buffer per VC plus the upstream output
// structure to which pops return credits.
type inPort struct {
	vcs    []inVC
	feeder *outPort
	depth  int
	// base is the requester index of VC 0 in the owning router.
	base int
}

func newInPort(vcs, depth int, feeder *outPort) *inPort {
	p := &inPort{vcs: make([]inVC, vcs), feeder: feeder, depth: depth}
	for i := range p.vcs {
		p.vcs[i].buf = make([]*flit.Flit, depth)
		p.vcs[i].route = -1
		p.vcs[i].outVC = -1
	}
	return p
}

// push enqueues an arriving flit into its VC buffer, enforcing the credit
// contract: arrivals must never overflow the buffer.
func (p *inPort) push(f *flit.Flit) {
	vc := &p.vcs[f.VC]
	if vc.n >= p.depth {
		panic(fmt.Sprintf("noc: VC %d overflow (depth %d); credit protocol violated", f.VC, p.depth))
	}
	slot := vc.head + vc.n
	if slot >= len(vc.buf) {
		slot -= len(vc.buf)
	}
	vc.buf[slot] = f
	vc.n++
}

// outPort is a router (or NI) output port: the outgoing link, downstream
// credit counters, downstream VC ownership, and arbitration pointers.
type outPort struct {
	link    *Link
	credits []int
	vcBusy  []bool
	// sink marks ejection ports whose NI consumes flits unconditionally.
	sink bool
	// rrVA rotates priority among VC-allocation requesters.
	rrVA int
	// rrSA rotates priority among switch-allocation candidates.
	rrSA int
}

func newOutPort(link *Link, vcs, depth int, sink bool) *outPort {
	p := &outPort{
		link:    link,
		credits: make([]int, vcs),
		vcBusy:  make([]bool, vcs),
		sink:    sink,
	}
	for i := range p.credits {
		if sink {
			p.credits[i] = int(^uint(0) >> 1) // effectively infinite
		} else {
			p.credits[i] = depth
		}
	}
	return p
}

// freeVCIn returns the lowest-index free downstream VC in [lo, hi), or -1.
func (p *outPort) freeVCIn(lo, hi int) int {
	for v := lo; v < hi; v++ {
		if !p.vcBusy[v] {
			return v
		}
	}
	return -1
}

// requester locates one input VC of a router by its requester index
// idx = inPort*vcs + vc, so the allocators never divide to find it.
type requester struct {
	port, v int
	vc      *inVC
}

// router is one topology node's switch. Port slices are sized to the
// topology's per-router port count at construction; nil entries mark ports
// with no link (mesh edges).
//
// The pipeline is driven by request sets over requester indexes, each
// updated only at the state transition that changes it, so a cycle visits
// only the input VCs that actually request something:
//
//   - rcReq: an unrouted head flit sits at the VC front (route == -1,
//     n > 0). Set when a flit lands in an empty unrouted VC and when a
//     tail departs a VC that still holds flits; cleared by rc.
//   - vaReq[out]: routed to out, waiting for a downstream VC (outVC == -1).
//     Set by rc, cleared by the VC grant. Such a VC always fronts its head
//     flit: a head cannot leave before it holds a downstream VC.
//   - saReq[out]: routed to out and holding a downstream VC. Set by the VC
//     grant, cleared when the tail departs.
type router struct {
	id  int
	in  []*inPort
	out []*outPort
	// vcs is the per-input-port VC count.
	vcs int
	// reqs maps every requester index to its input VC; entries of unwired
	// ports stay zero and never enter a request set.
	reqs         []requester
	rcReq        bitset
	vaReq, saReq []bitset
	// usedIn is the switch allocator's per-call crossbar-row scratch,
	// allocated once so sa stays allocation-free on the hot path.
	usedIn []bool
	// buffered counts flits resident in input buffers, letting the
	// simulator skip idle routers.
	buffered int
}

func newRouter(id, ports, vcs int) *router {
	n := ports * vcs
	r := &router{
		id:     id,
		in:     make([]*inPort, ports),
		out:    make([]*outPort, ports),
		vcs:    vcs,
		reqs:   make([]requester, n),
		rcReq:  newBitset(n),
		vaReq:  make([]bitset, ports),
		saReq:  make([]bitset, ports),
		usedIn: make([]bool, ports),
	}
	for po := 0; po < ports; po++ {
		r.vaReq[po], r.saReq[po] = newBitset(n), newBitset(n)
	}
	return r
}

// attachIn wires an input port and indexes its VCs as requesters.
func (r *router) attachIn(port int, in *inPort) {
	r.in[port] = in
	in.base = port * r.vcs
	for v := range in.vcs {
		r.reqs[in.base+v] = requester{port: port, v: v, vc: &in.vcs[v]}
	}
}

// receive buffers a flit delivered to one of the router's input ports. A
// flit landing in an empty unrouted VC is a packet head awaiting rc.
func (r *router) receive(in *inPort, f *flit.Flit) {
	in.push(f)
	r.buffered++
	if vc := &in.vcs[f.VC]; vc.n == 1 && vc.route == -1 {
		r.rcReq.set(in.base + f.VC)
	}
}

// rc runs route computation: every head flit at a VC front with no route
// yet gets its output port — and the VC class of the hop — from the
// topology. Sink (ejection) ports ignore the class: the NI consumes
// unconditionally, so restricting ejection VCs would only throttle.
func (r *router) rc(topo Topology) {
	for idx := r.rcReq.next(0); idx != -1; idx = r.rcReq.next(idx + 1) {
		vc := r.reqs[idx].vc
		port, class := topo.Route(r.id, vc.front().Dst)
		vc.route = port
		vc.vcLo, vc.vcHi = 0, r.vcs
		if out := r.out[port]; out != nil && !out.sink {
			if classes := topo.VCClasses(); classes > 1 {
				vc.vcLo = class * r.vcs / classes
				vc.vcHi = (class + 1) * r.vcs / classes
			}
		}
		r.vaReq[port].set(idx)
	}
	clear(r.rcReq)
}

// va runs VC allocation: each output port grants free VCs — within the
// requester's VC class — to its vaReq members in round-robin order from
// rrVA.
//
// The scan base is pinned to the historical full-scan allocator, which
// re-read rrVA inside its loop: after the first grant at scan offset k it
// moved rrVA past k and continued from the new base, so it next probed
// offset 2k+2, skipped offsets k+1…2k+1 until the next cycle, and spent its
// remaining probes on the wrapped offsets 0…k, which had already failed
// (free VCs only shrink during the scan). Resuming at offset 2k+2 and
// stopping at the end of the rotation reproduces that grant order exactly;
// making the scan fair would change every simulated result.
func (r *router) va() {
	n := len(r.reqs)
	for po, out := range r.out {
		if out == nil {
			continue
		}
		req, base, granted := r.vaReq[po], out.rrVA, false
		for off := req.nextRR(base, 0, n); off < n; off = req.nextRR(base, off+1, n) {
			idx := base + off
			if idx >= n {
				idx -= n
			}
			vc := r.reqs[idx].vc
			free := out.freeVCIn(vc.vcLo, vc.vcHi)
			if free == -1 {
				continue
			}
			vc.outVC = free
			out.vcBusy[free] = true
			req.clear(idx)
			r.saReq[po].set(idx)
			if !granted {
				granted = true
				out.rrVA = idx + 1
				if out.rrVA == n {
					out.rrVA = 0
				}
				off = 2*off + 1 // resume at offset 2k+2, see above
			}
		}
	}
}

// sa runs switch allocation and traversal: each output port picks one
// saReq member (flit buffered, credit available, crossbar input row free)
// in round-robin order from rrSA and forwards its flit onto the link.
// Returns the number of flits forwarded.
func (r *router) sa() int {
	for i := range r.usedIn {
		r.usedIn[i] = false
	}
	n := len(r.reqs)
	moved := 0
	for po, out := range r.out {
		if out == nil || out.link.inFlight != nil {
			continue
		}
		req, base := r.saReq[po], out.rrSA
		for off := req.nextRR(base, 0, n); off < n; off = req.nextRR(base, off+1, n) {
			idx := base + off
			if idx >= n {
				idx -= n
			}
			q := &r.reqs[idx]
			vc := q.vc
			if r.usedIn[q.port] || vc.n == 0 || out.credits[vc.outVC] <= 0 {
				continue
			}
			f := vc.front()
			vc.pop()
			r.buffered--
			r.usedIn[q.port] = true
			moved++

			f.VC = vc.outVC
			out.link.transmit(f)
			if !out.sink {
				out.credits[f.VC]--
			}
			// Return a credit upstream for the buffer slot just freed.
			if feeder := r.in[q.port].feeder; feeder != nil && !feeder.sink {
				feeder.credits[q.v]++
			}
			if f.IsTail() {
				out.vcBusy[f.VC] = false
				vc.route = -1
				vc.outVC = -1
				req.clear(idx)
				if vc.n > 0 {
					r.rcReq.set(idx)
				}
			}
			out.rrSA = idx + 1
			if out.rrSA == n {
				out.rrSA = 0
			}
			break
		}
	}
	return moved
}

// checkRequestSets recomputes the request sets and the buffered count from
// the per-VC state (route, outVC, occupancy, front flit) and reports the
// first disagreement, or a VC state the sets cannot describe. Valid
// between Steps.
func (r *router) checkRequestSets() error {
	n := len(r.reqs)
	rc := newBitset(n)
	va, sa := make([]bitset, len(r.out)), make([]bitset, len(r.out))
	for po := range r.out {
		va[po], sa[po] = newBitset(n), newBitset(n)
	}
	buffered := 0
	for pi, in := range r.in {
		if in == nil {
			continue
		}
		for v := range in.vcs {
			vc := &in.vcs[v]
			idx := pi*r.vcs + v
			buffered += vc.n
			head := vc.n > 0 && vc.front().IsHead()
			switch {
			case vc.route == -1:
				if vc.n == 0 {
					continue
				}
				if !head {
					return fmt.Errorf("router %d input %d VC %d: unrouted VC fronts a non-head flit", r.id, pi, v)
				}
				rc.set(idx)
			case vc.outVC == -1:
				if !head {
					return fmt.Errorf("router %d input %d VC %d: awaits a downstream VC without its head flit at the front", r.id, pi, v)
				}
				va[vc.route].set(idx)
			default:
				sa[vc.route].set(idx)
			}
		}
	}
	if buffered != r.buffered {
		return fmt.Errorf("router %d: buffered count %d, VCs hold %d flits", r.id, r.buffered, buffered)
	}
	if !slices.Equal(rc, r.rcReq) {
		return fmt.Errorf("router %d: rcReq %x, VC state implies %x", r.id, r.rcReq, rc)
	}
	for po := range r.out {
		if !slices.Equal(va[po], r.vaReq[po]) {
			return fmt.Errorf("router %d: vaReq[%d] %x, VC state implies %x", r.id, po, r.vaReq[po], va[po])
		}
		if !slices.Equal(sa[po], r.saReq[po]) {
			return fmt.Errorf("router %d: saReq[%d] %x, VC state implies %x", r.id, po, r.saReq[po], sa[po])
		}
	}
	return nil
}
