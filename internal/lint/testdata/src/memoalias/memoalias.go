// Fixture for the memoalias analyzer: values read out of internal/memo
// (Entry.Wait) must not escape raw when they can alias.
package memoalias

import "repro/internal/memo"

type result struct {
	Mapping []int
	Value   float64
}

func cloneResult(r result) result {
	out := r
	out.Mapping = append([]int(nil), r.Mapping...)
	return out
}

func cloneStored(r result, err error) (result, error) {
	if err != nil {
		return r, err
	}
	return cloneResult(r), nil
}

func badReturn(e *memo.Entry[result]) (result, error) {
	return e.Wait() // want "memoized memoalias.result read by Wait escapes"
}

func badStore(e *memo.Entry[result]) []int {
	r, _ := e.Wait() // want "memoized memoalias.result read by Wait escapes"
	return r.Mapping
}

func goodClone(e *memo.Entry[result]) (result, error) {
	return cloneStored(e.Wait())
}

func goodScalar(e *memo.Entry[float64]) float64 {
	v, _ := e.Wait()
	return v
}

func badShared(e *memo.Entry[*result]) *result {
	p, _ := e.Wait() // want "memoized \\*memoalias.result read by Wait escapes"
	return p
}

func allowShared(e *memo.Entry[*result]) *result {
	//lint:allow memoalias fixture: the pointee is immutable by construction
	p, _ := e.Wait()
	return p
}

// entry has a Wait method of its own; only the memo package's is guarded.
type entry struct{ res result }

func (e *entry) Wait() (result, error) { return e.res, nil }

func notTheMemo(e *entry) (result, error) {
	return e.Wait()
}
