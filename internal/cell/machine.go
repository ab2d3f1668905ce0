// Package cell models the Cell Broadband Engine of the paper's Section 4 as
// a discrete-event system: one dual-thread PPE, eight SPEs with 256 KB of
// software-managed local store each, Memory Flow Controllers issuing DMA
// transfers of at most 16 KB over a four-ring Element Interconnect Bus, and
// four-entry inbound mailboxes. Costs are expressed in 3.2 GHz cycles.
//
// The model is calibrated from the microarchitectural facts the paper
// itself reports: double-precision issue of two ops every six cycles,
// ~20-cycle branch mispredict penalty on the SPE, DMA latency and EIB
// bandwidth of 96 bytes/cycle (204.8 GB/s), and the relative costs of libm
// exp() versus the SDK's numerical exp().
package cell

import (
	"fmt"

	"raxmlcell/internal/sim"
)

// Params describes the machine configuration.
type Params struct {
	ClockHz         float64 // 3.2 GHz production silicon
	NumSPE          int     // 8 per Cell
	PPEThreads      int     // PPE is 2-way SMT
	LocalStoreBytes int     // 256 KB per SPE
	DMAMaxBytes     int     // one DMA request moves at most 16 KB
	MailboxEntries  int     // 4-entry inbound mailbox
	EIBRings        int     // 4 data rings
	EIBBytesPerRing float64 // 96 bytes/cycle total across 4 rings = 24 each
	DMAStartup      sim.Time
}

// DefaultParams returns the QS20-blade configuration used in the paper.
func DefaultParams() Params {
	return Params{
		ClockHz:         3.2e9,
		NumSPE:          8,
		PPEThreads:      2,
		LocalStoreBytes: 256 * 1024,
		DMAMaxBytes:     16 * 1024,
		MailboxEntries:  4,
		EIBRings:        4,
		EIBBytesPerRing: 24,
		DMAStartup:      300,
	}
}

// Machine is one simulated Cell processor.
type Machine struct {
	Params
	Eng  *sim.Engine
	PPE  *PPE
	SPEs []*SPE
	eib  *sim.MultiServer

	// Aggregate statistics.
	DMARequests   uint64
	DMABytes      uint64
	MailboxSends  uint64
	DirectSignals uint64
}

// New builds a machine on a fresh simulation engine.
func New(p Params) (*Machine, error) {
	if p.NumSPE <= 0 || p.PPEThreads <= 0 {
		return nil, fmt.Errorf("cell: need positive SPE and PPE thread counts")
	}
	if p.ClockHz <= 0 || p.EIBBytesPerRing <= 0 || p.EIBRings <= 0 {
		return nil, fmt.Errorf("cell: bad clock or EIB parameters")
	}
	m := &Machine{
		Params: p,
		Eng:    sim.NewEngine(),
		eib:    sim.NewMultiServer(p.EIBRings),
	}
	m.PPE = &PPE{Threads: sim.NewResource(p.PPEThreads), mach: m}
	for i := 0; i < p.NumSPE; i++ {
		spe := &SPE{
			ID:      i,
			LS:      NewLocalStore(p.LocalStoreBytes),
			Mailbox: sim.NewQueue(p.MailboxEntries),
			mach:    m,
		}
		m.SPEs = append(m.SPEs, spe)
	}
	return m, nil
}

// Seconds converts simulated cycles to wall-clock seconds.
func (m *Machine) Seconds(t sim.Time) float64 { return float64(t) / m.ClockHz }

// PPE is the Power Processing Element: a 2-way SMT front-end whose hardware
// threads are a counted resource that MPI processes acquire to run.
type PPE struct {
	Threads *sim.Resource
	mach    *Machine
}

// SPE is one Synergistic Processing Element.
type SPE struct {
	ID      int
	LS      *LocalStore
	Mailbox *sim.Queue
	mach    *Machine

	// Busy tracking for scheduler decisions and utilization reporting.
	busyCycles sim.Time
}

// Compute advances the calling process by the given number of SPE cycles,
// accounting them as busy time.
func (s *SPE) Compute(p *sim.Proc, cycles sim.Time) {
	s.busyCycles += cycles
	p.Advance(cycles)
}

// AddBusy accounts busy cycles without advancing the caller — used when a
// single process charges work to several SPEs at once (loop-level
// distribution) and advances by the maximum share itself.
func (s *SPE) AddBusy(cycles sim.Time) { s.busyCycles += cycles }

// Utilization is busy time divided by total simulated time.
func (s *SPE) Utilization() float64 {
	if s.mach.Eng.Now() == 0 {
		return 0
	}
	return float64(s.busyCycles) / float64(s.mach.Eng.Now())
}

// dmaDuration computes transfer time for one request of the given size.
func (m *Machine) dmaDuration(size int) sim.Time {
	return m.DMAStartup + sim.Time(float64(size)/m.EIBBytesPerRing)
}

// DMA validates and performs a synchronous DMA transfer between main memory
// and the SPE's local store, blocking the calling process until completion.
// Size and alignment rules follow the MFC: at most 16 KB per request, sizes
// of 1, 2, 4, 8 or multiples of 16 bytes.
func (s *SPE) DMA(p *sim.Proc, size int) error {
	done, err := s.DMAAsync(size)
	if err != nil {
		return err
	}
	s.WaitDMA(p, done)
	return nil
}

// DMAAsync issues a DMA request and returns its completion time without
// blocking — the double-buffering primitive: issue the next batch, compute
// on the current one, then WaitDMA.
func (s *SPE) DMAAsync(size int) (sim.Time, error) {
	if err := validateDMASize(size, s.mach.DMAMaxBytes); err != nil {
		return 0, err
	}
	s.mach.DMARequests++
	s.mach.DMABytes += uint64(size)
	return s.mach.eib.Reserve(s.mach.Eng.Now(), s.mach.dmaDuration(size)), nil
}

// WaitDMA blocks the process until the given completion time has passed
// (no-op if it already has).
func (s *SPE) WaitDMA(p *sim.Proc, done sim.Time) {
	now := s.mach.Eng.Now()
	if done > now {
		p.Advance(done - now)
	}
}

func validateDMASize(size, max int) error {
	if size <= 0 {
		return fmt.Errorf("cell: DMA size %d must be positive", size)
	}
	if size > max {
		return fmt.Errorf("cell: DMA size %d exceeds the %d-byte MFC limit", size, max)
	}
	switch size {
	case 1, 2, 4, 8:
		return nil
	}
	if size%16 != 0 {
		return fmt.Errorf("cell: DMA size %d is not 1, 2, 4, 8 or a multiple of 16", size)
	}
	return nil
}
