package pipeline

import (
	"fmt"
	"math"

	"repro/internal/fmath"
)

// Processor is a multi-modal computation resource (Section 3.2). Its Speeds
// are the discrete DVFS modes, kept sorted ascending; the last entry is the
// fastest mode. A uni-modal processor has exactly one speed.
type Processor struct {
	// Name identifies the processor in reports; optional.
	Name string
	// Speeds is the mode set S_u = {s_u,1 ... s_u,m_u}, ascending.
	Speeds []float64
}

// MaxSpeed returns the fastest mode.
func (p *Processor) MaxSpeed() float64 { return p.Speeds[len(p.Speeds)-1] }

// MinSpeed returns the slowest mode.
func (p *Processor) MinSpeed() float64 { return p.Speeds[0] }

// NumModes returns the number of execution modes m_u.
func (p *Processor) NumModes() int { return len(p.Speeds) }

// Class describes where a platform sits in the paper's heterogeneity
// hierarchy (Section 3.2).
type Class int

const (
	// FullyHomogeneous: identical processors (same speed set) and a single
	// common bandwidth on every link, including virtual in/out links.
	FullyHomogeneous Class = iota
	// CommHomogeneous: identical link bandwidths but processor speed sets
	// may differ. Models networks of workstations on a uniform LAN.
	CommHomogeneous
	// FullyHeterogeneous: both speeds and link capacities may differ.
	FullyHeterogeneous
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case FullyHomogeneous:
		return "fully-homogeneous"
	case CommHomogeneous:
		return "communication-homogeneous"
	case FullyHeterogeneous:
		return "fully-heterogeneous"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Platform is the target execution platform: p fully interconnected
// processors plus, for each of the A applications, virtual input and output
// processors P_in_a and P_out_a connected to every real processor.
type Platform struct {
	// Processors are the real compute resources.
	Processors []Processor
	// Bandwidth[u][v] is the capacity b_{u,v} of the bidirectional link
	// between P_u and P_v. It must be symmetric with positive
	// off-diagonal entries; the diagonal is ignored (an interval never
	// communicates with itself).
	Bandwidth [][]float64
	// InBandwidth[a][u] is the bandwidth between the virtual input
	// processor of application a and P_u.
	InBandwidth [][]float64
	// OutBandwidth[a][u] is the bandwidth between P_u and the virtual
	// output processor of application a.
	OutBandwidth [][]float64
}

// NumProcessors returns p.
func (pl *Platform) NumProcessors() int { return len(pl.Processors) }

// NumApplications returns the number of applications the platform's virtual
// in/out links were sized for.
func (pl *Platform) NumApplications() int { return len(pl.InBandwidth) }

// Link returns the bandwidth between two distinct real processors.
func (pl *Platform) Link(u, v int) float64 { return pl.Bandwidth[u][v] }

// InLink returns the bandwidth from P_in_a to processor u.
func (pl *Platform) InLink(a, u int) float64 { return pl.InBandwidth[a][u] }

// OutLink returns the bandwidth from processor u to P_out_a.
func (pl *Platform) OutLink(a, u int) float64 { return pl.OutBandwidth[a][u] }

// UniModal reports whether every processor has a single execution mode.
func (pl *Platform) UniModal() bool {
	for i := range pl.Processors {
		if len(pl.Processors[i].Speeds) != 1 {
			return false
		}
	}
	return true
}

// HomogeneousProcessors reports whether all processors share the same speed
// set (within tolerance).
func (pl *Platform) HomogeneousProcessors() bool {
	if len(pl.Processors) == 0 {
		return true
	}
	ref := pl.Processors[0].Speeds
	for i := 1; i < len(pl.Processors); i++ {
		s := pl.Processors[i].Speeds
		if len(s) != len(ref) {
			return false
		}
		for j := range s {
			if !fmath.EQ(s[j], ref[j]) {
				return false
			}
		}
	}
	return true
}

// HomogeneousLinks reports whether every link (including virtual in/out
// links) has the same bandwidth, and returns that bandwidth.
func (pl *Platform) HomogeneousLinks() (float64, bool) {
	b := math.NaN()
	check := func(x float64) bool {
		if math.IsNaN(b) {
			b = x
			return true
		}
		return fmath.EQ(b, x)
	}
	p := len(pl.Processors)
	for u := 0; u < p; u++ {
		for v := 0; v < p; v++ {
			if u == v {
				continue
			}
			if !check(pl.Bandwidth[u][v]) {
				return 0, false
			}
		}
	}
	for a := range pl.InBandwidth {
		for u := 0; u < p; u++ {
			if !check(pl.InBandwidth[a][u]) || !check(pl.OutBandwidth[a][u]) {
				return 0, false
			}
		}
	}
	if math.IsNaN(b) {
		b = 1 // single-processor platform with no apps; irrelevant
	}
	return b, true
}

// Classify returns the platform class in the paper's hierarchy.
func (pl *Platform) Classify() Class {
	_, linksHom := pl.HomogeneousLinks()
	if !linksHom {
		return FullyHeterogeneous
	}
	if pl.HomogeneousProcessors() {
		return FullyHomogeneous
	}
	return CommHomogeneous
}

// Validate checks structural invariants: at least one processor, sorted
// finite positive speed sets, and symmetric finite positive bandwidth
// matrices of consistent dimensions.
func (pl *Platform) Validate() error {
	p := len(pl.Processors)
	if p == 0 {
		return fmt.Errorf("pipeline: platform has no processors")
	}
	for u, proc := range pl.Processors {
		if len(proc.Speeds) == 0 {
			return fmt.Errorf("pipeline: processor %d has no speeds", u)
		}
		for i, s := range proc.Speeds {
			if !positive(s) {
				return fmt.Errorf("pipeline: processor %d speed %d is %g, want finite and positive", u, i, s)
			}
			if i > 0 && s < proc.Speeds[i-1] {
				return fmt.Errorf("pipeline: processor %d speeds not sorted ascending", u)
			}
		}
	}
	if len(pl.Bandwidth) != p {
		return fmt.Errorf("pipeline: bandwidth matrix has %d rows, want %d", len(pl.Bandwidth), p)
	}
	for u := 0; u < p; u++ {
		if len(pl.Bandwidth[u]) != p {
			return fmt.Errorf("pipeline: bandwidth row %d has %d entries, want %d", u, len(pl.Bandwidth[u]), p)
		}
		for v := 0; v < p; v++ {
			if u == v {
				continue
			}
			if b := pl.Bandwidth[u][v]; !positive(b) {
				return fmt.Errorf("pipeline: bandwidth[%d][%d] = %g must be finite and positive", u, v, b)
			}
			if !fmath.EQ(pl.Bandwidth[u][v], pl.Bandwidth[v][u]) {
				return fmt.Errorf("pipeline: bandwidth matrix not symmetric at (%d,%d)", u, v)
			}
		}
	}
	if len(pl.InBandwidth) != len(pl.OutBandwidth) {
		return fmt.Errorf("pipeline: in/out bandwidth matrices disagree on application count")
	}
	for a := range pl.InBandwidth {
		if len(pl.InBandwidth[a]) != p || len(pl.OutBandwidth[a]) != p {
			return fmt.Errorf("pipeline: in/out bandwidth row %d has wrong width", a)
		}
		for u := 0; u < p; u++ {
			if b := pl.InBandwidth[a][u]; !positive(b) {
				return fmt.Errorf("pipeline: in bandwidth[%d][%d] = %g must be finite and positive", a, u, b)
			}
			if b := pl.OutBandwidth[a][u]; !positive(b) {
				return fmt.Errorf("pipeline: out bandwidth[%d][%d] = %g must be finite and positive", a, u, b)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the platform.
func (pl *Platform) Clone() Platform {
	c := Platform{Processors: make([]Processor, len(pl.Processors))}
	for i, pr := range pl.Processors {
		c.Processors[i] = Processor{Name: pr.Name, Speeds: append([]float64(nil), pr.Speeds...)}
	}
	c.Bandwidth = cloneMatrix(pl.Bandwidth)
	c.InBandwidth = cloneMatrix(pl.InBandwidth)
	c.OutBandwidth = cloneMatrix(pl.OutBandwidth)
	return c
}

func cloneMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	c := make([][]float64, len(m))
	for i := range m {
		c[i] = append([]float64(nil), m[i]...)
	}
	return c
}

func uniformMatrix(rows, cols int, x float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = x
		}
	}
	return m
}

// NewHomogeneousPlatform builds a fully homogeneous platform of p identical
// processors with the given mode set, a uniform bandwidth b on every link,
// sized for numApps applications.
func NewHomogeneousPlatform(p int, speeds []float64, b float64, numApps int) Platform {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{Name: fmt.Sprintf("P%d", i+1), Speeds: append([]float64(nil), speeds...)}
	}
	return Platform{
		Processors:   procs,
		Bandwidth:    uniformMatrix(p, p, b),
		InBandwidth:  uniformMatrix(numApps, p, b),
		OutBandwidth: uniformMatrix(numApps, p, b),
	}
}

// NewCommHomogeneousPlatform builds a communication homogeneous platform:
// per-processor speed sets with a uniform bandwidth b, sized for numApps
// applications.
func NewCommHomogeneousPlatform(speedSets [][]float64, b float64, numApps int) Platform {
	procs := make([]Processor, len(speedSets))
	for i, s := range speedSets {
		procs[i] = Processor{Name: fmt.Sprintf("P%d", i+1), Speeds: append([]float64(nil), s...)}
	}
	p := len(procs)
	return Platform{
		Processors:   procs,
		Bandwidth:    uniformMatrix(p, p, b),
		InBandwidth:  uniformMatrix(numApps, p, b),
		OutBandwidth: uniformMatrix(numApps, p, b),
	}
}

// NewHeterogeneousPlatform builds a fully heterogeneous platform from
// explicit speed sets and bandwidth matrices. The matrices are cloned.
func NewHeterogeneousPlatform(speedSets [][]float64, bw, in, out [][]float64) Platform {
	procs := make([]Processor, len(speedSets))
	for i, s := range speedSets {
		procs[i] = Processor{Name: fmt.Sprintf("P%d", i+1), Speeds: append([]float64(nil), s...)}
	}
	return Platform{
		Processors:   procs,
		Bandwidth:    cloneMatrix(bw),
		InBandwidth:  cloneMatrix(in),
		OutBandwidth: cloneMatrix(out),
	}
}
