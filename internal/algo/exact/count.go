package exact

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// CountMappings returns the number of valid mappings of inst under the
// options — the *unbroken* search space, with no pruning or symmetry
// breaking applied; used by the scaling experiments to report search-space
// growth and by core to gate the exact solver. Counting is a memoized
// dynamic program whenever the state space is small enough (the count
// depends on the free processors only through how many of each mode-count
// class remain), falling back to plain enumeration otherwise; both paths
// return the same count and the same ErrSearchSpace behaviour when the
// count exceeds Options.Limit.
func CountMappings(inst *pipeline.Instance, opt Options) (int64, error) {
	if n, ok := countDP(inst, opt); ok {
		if n > opt.limit() {
			return 0, fmt.Errorf("counting mappings: %w", ErrSearchSpace)
		}
		return n, nil
	}
	var n int64
	err := Enumerate(inst, opt, func(*mapping.Mapping) error { n++; return nil })
	if err != nil {
		return 0, fmt.Errorf("counting mappings: %w", err)
	}
	return n, nil
}

// countArena holds the DP's memo and class tables so repeated counts (core
// gates every exact solve through the search-space check) allocate nothing
// after warm-up.
type countArena struct {
	classSize []int64 // processors per class
	classMode []int64 // enumerable modes per class member
	classLeft []int64 // mutable free count per class
	radix     []int64 // mixed-radix stride per class
	posOff    []int   // position offset of app a's stage states
	memo      []int64 // position*states + freeIdx -> count, -1 = unknown
	states    int64   // number of free-count states
}

var countPool = sync.Pool{New: func() any { return new(countArena) }}

// maxCountStates bounds the DP table; beyond it the enumeration fallback
// applies (a table this large would cost more to fill than it saves).
const maxCountStates = 1 << 22

// countDP computes the exact mapping count by dynamic programming. The
// number of completions from a search state depends only on (application,
// next stage, how many processors of each mode-count class are free):
// distinct free processors with equal enumerable-mode counts contribute
// identically, so the free set collapses to a small mixed-radix index.
// Multiplying each transition by free[class] * modes[class] counts exactly
// the assignments the enumerator would visit. Returns ok=false when the
// state space exceeds maxCountStates.
func countDP(inst *pipeline.Instance, opt Options) (count int64, ok bool) {
	ar := countPool.Get().(*countArena)
	defer countPool.Put(ar)

	p := inst.Platform.NumProcessors()
	ar.classSize = ar.classSize[:0]
	ar.classMode = ar.classMode[:0]
	for u := 0; u < p; u++ {
		modes := int64(1)
		if opt.Modes == AllModes {
			modes = int64(inst.Platform.Processors[u].NumModes())
		}
		c := -1
		for i, m := range ar.classMode {
			if m == modes {
				c = i
				break
			}
		}
		if c < 0 {
			ar.classMode = append(ar.classMode, modes)
			ar.classSize = append(ar.classSize, 0)
			c = len(ar.classMode) - 1
		}
		ar.classSize[c]++
	}
	nc := len(ar.classSize)

	// Mixed-radix encoding of the per-class free counts.
	ar.radix = resizeInt64s(ar.radix, nc)
	states := int64(1)
	for c := 0; c < nc; c++ {
		ar.radix[c] = states
		states *= ar.classSize[c] + 1
		if states > maxCountStates {
			return 0, false
		}
	}
	ar.states = states

	ar.posOff = resizeInts(ar.posOff, len(inst.Apps)+1)
	positions := 0
	for a := range inst.Apps {
		ar.posOff[a] = positions
		positions += inst.Apps[a].NumStages() // states (a, from) with from < n
	}
	ar.posOff[len(inst.Apps)] = positions
	if int64(positions)*states > maxCountStates {
		return 0, false
	}

	ar.memo = resizeInt64s(ar.memo, positions*int(states))
	for i := range ar.memo {
		ar.memo[i] = -1
	}
	ar.classLeft = append(ar.classLeft[:0], ar.classSize...)

	freeIdx := int64(0)
	for c := 0; c < nc; c++ {
		freeIdx += ar.classLeft[c] * ar.radix[c]
	}
	return countRec(inst, opt, ar, 0, 0, freeIdx), true
}

// countRec counts the completions from application a, stage from, given the
// free-class state. Saturating arithmetic keeps overflow monotone: any
// true count above MaxInt64 reports as MaxInt64, which still exceeds every
// configurable limit.
func countRec(inst *pipeline.Instance, opt Options, ar *countArena, a, from int, freeIdx int64) int64 {
	if a == len(inst.Apps) {
		return 1
	}
	app := &inst.Apps[a]
	n := app.NumStages()
	if from == n {
		return countRec(inst, opt, ar, a+1, 0, freeIdx)
	}
	key := int64(ar.posOff[a]+from)*ar.states + freeIdx
	if v := ar.memo[key]; v >= 0 {
		return v
	}
	// The enumerator abandons a branch when the free processors cannot give
	// every remaining application at least one; it only ever cuts
	// zero-completion branches, so the counts agree either way, but keeping
	// the check makes small tables cheap.
	free := int64(0)
	for c := range ar.classLeft {
		free += ar.classLeft[c]
	}
	var total int64
	if free > int64(len(inst.Apps)-a-1) {
		hi := n - 1
		if opt.Rule == mapping.OneToOne {
			hi = from
		}
		for to := from; to <= hi; to++ {
			for c := range ar.classLeft {
				if ar.classLeft[c] == 0 {
					continue
				}
				ways := satMul(ar.classLeft[c], ar.classMode[c])
				ar.classLeft[c]--
				sub := countRec(inst, opt, ar, a, to+1, freeIdx-ar.radix[c])
				ar.classLeft[c]++
				total = satAdd(total, satMul(ways, sub))
			}
		}
	}
	ar.memo[key] = total
	return total
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}
