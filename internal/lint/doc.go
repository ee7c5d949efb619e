// Package lint is the pipelint suite: five repo-specific static analyzers
// that mechanically enforce the solver's load-bearing safety invariants.
// Every analyzer encodes a bug class this reproduction has actually
// shipped and fixed (see CHANGES.md, PRs 2-4), so the suite is the
// compile-time complement to the runtime differential oracle
// (internal/diffcheck): the oracle proves the invariants held on 1080
// scenarios after the fact; pipelint proves the code cannot drift away
// from them on any CI run.
//
// The analyzers:
//
//   - memoalias (internal/lint/memoalias) guards the one memo primitive
//     (internal/memo): an aliasable value (slice, map or pointer-bearing)
//     read out of it by Entry.Wait must pass straight into a clone
//     function, or every later hit on that key observes the caller's
//     mutations. This is the bug once fixed in the batch cache and
//     designed against in the plan memo.
//
//   - ctxflow guards cancellation plumbing everywhere: a context.Context
//     parameter that the function body never touches cannot cancel
//     anything (the PR 2/4 SolveBatchCtx/Table*Ctx retrofits), and a
//     context.Background()/TODO() minted while a caller's context is in
//     scope silently detaches the work below it.
//
//   - errclass guards the error-classification contract between the
//     solver and the HTTP layer: internal/jobspec maps core.ErrInfeasible,
//     core.ErrUnsupported and context errors to wire codes and status
//     codes via errors.Is, which direct `err == ErrX` comparisons and
//     fmt.Errorf calls that format a cause without %w both break.
//
//   - floatcmp guards tolerant comparison: ==, !=, <= and >= between two
//     computed floats outside internal/fmath (which owns EQ/LE/GE) flip
//     feasibility verdicts on round-off noise. Strict < and > (argmin
//     accumulation) and comparisons against constants are exempt.
//
//   - determinism guards (seed,index) reproducibility in the solver,
//     plan, generator, replication and simulator packages: map iteration
//     feeding result ordering, time.Now, and the process-global math/rand
//     source all make identical inputs produce different outputs.
//
// # Running the suite
//
// `make lint` (or `go run ./cmd/pipelint ./...` from the module root)
// loads every package, runs the five analyzers and exits non-zero on any
// finding; `make check` includes it. The suite runs clean on this tree:
// every true positive it has surfaced is fixed, and the handful of
// deliberate exceptions carry suppression directives.
//
// # Suppressing a finding
//
// Append to the offending line (or the line above it):
//
//	//lint:allow <analyzer> <justification>
//
// The justification is mandatory — a bare directive is itself reported —
// so every suppression documents why the invariant does not apply (for
// example internal/batch shares *plan.Plan pointers out of its plan tier
// because plans are immutable by construction).
//
// # Architecture
//
// The analyzers are written against internal/lint/analysis, a
// dependency-free stand-in for golang.org/x/tools/go/analysis (this
// module deliberately has no external requirements): same
// Analyzer/Pass/Reportf shape, with a loader that type-checks packages
// offline from `go list -deps -export` output. Golden tests under
// testdata/src/<analyzer>/ drive each analyzer through
// internal/lint/analysistest, which implements the `// want "regexp"`
// contract of x/tools' analysistest.
package lint
