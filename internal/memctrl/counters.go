package memctrl

// Counters is the Section 3.1 performance-counter set the OS policy
// reads at profiling and epoch boundaries. The controller keeps one set
// for all channels ("only a single set of counters is needed"). All
// counters are cumulative since controller creation; the policy works
// with deltas via Sub.
type Counters struct {
	// TLM: Total LLC Misses per core (reads reaching memory). The
	// companion TIC (total instructions committed) lives in the core
	// model, as in real hardware.
	TLM []uint64

	// Transactions-outstanding accumulators (queueing model inputs):
	// BTO accumulates, for every arriving request, the number of
	// requests already outstanding for the same bank; BTC counts
	// arrivals. CTO/CTC do the same at channel (bus) granularity.
	BTO, BTC uint64
	CTO, CTC uint64

	// Row-buffer performance: row-buffer hits (RBHC), misses to an
	// open row (OBMC), misses to a closed bank (CBMC), and powerdown
	// exits (EPDC).
	RBHC, OBMC, CBMC, EPDC uint64

	// POCC: page open/close command pairs (activations).
	POCC uint64

	// Reads and Writebacks served (completed bus transfers).
	Reads, Writebacks uint64
}

// Clone deep-copies the counters (snapshotting the TLM slice).
func (c Counters) Clone() Counters {
	out := c
	out.TLM = append([]uint64(nil), c.TLM...)
	return out
}

// Add returns the counter sums c + o (a fresh copy).
func (c Counters) Add(o Counters) Counters {
	out := c.Clone()
	for i := range out.TLM {
		out.TLM[i] += o.TLM[i]
	}
	out.BTO += o.BTO
	out.BTC += o.BTC
	out.CTO += o.CTO
	out.CTC += o.CTC
	out.RBHC += o.RBHC
	out.OBMC += o.OBMC
	out.CBMC += o.CBMC
	out.EPDC += o.EPDC
	out.POCC += o.POCC
	out.Reads += o.Reads
	out.Writebacks += o.Writebacks
	return out
}

// Sub returns the counter deltas c - prev. The receiver and argument
// must have the same core count.
func (c Counters) Sub(prev Counters) Counters {
	out := c.Clone()
	for i := range out.TLM {
		out.TLM[i] -= prev.TLM[i]
	}
	out.BTO -= prev.BTO
	out.BTC -= prev.BTC
	out.CTO -= prev.CTO
	out.CTC -= prev.CTC
	out.RBHC -= prev.RBHC
	out.OBMC -= prev.OBMC
	out.CBMC -= prev.CBMC
	out.EPDC -= prev.EPDC
	out.POCC -= prev.POCC
	out.Reads -= prev.Reads
	out.Writebacks -= prev.Writebacks
	return out
}

// BankQueueDepth returns BTO/BTC: the average number of requests an
// arriving request found ahead of it for its bank (the ξ_bank of
// Equation 8).
func (c Counters) BankQueueDepth() float64 {
	if c.BTC == 0 {
		return 0
	}
	return float64(c.BTO) / float64(c.BTC)
}

// ChannelQueueDepth returns CTO/CTC (the ξ_bus of Equation 7).
func (c Counters) ChannelQueueDepth() float64 {
	if c.CTC == 0 {
		return 0
	}
	return float64(c.CTO) / float64(c.CTC)
}

// AccessCount returns the number of row-buffer-classified accesses.
func (c Counters) AccessCount() uint64 { return c.RBHC + c.OBMC + c.CBMC }

// RowHitFraction returns the fraction of accesses that hit an open row.
func (c Counters) RowHitFraction() float64 {
	n := c.AccessCount()
	if n == 0 {
		return 0
	}
	return float64(c.RBHC) / float64(n)
}
