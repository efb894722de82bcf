package prof

import (
	"fmt"
	"io"
)

// JIT candidate view: project a profile's hot-block ranking onto the
// trace-JIT tier's selection rule (vm/jit.go) so thresholds can be tuned
// from a committed PROF file instead of by re-running workloads. The
// profiler's blocks are maximal equal-count PC runs — the straight-line
// skeleton the JIT's superblocks grow from — so a block's count is the
// entry count its first PC would accumulate, and `hot` is exactly the
// compile decision the tier would make at the given threshold.

// CandidateMinLen is the tier's minimum superblock length (vm uses this
// constant): runs shorter than this are never compiled (the per-pass
// guards cost more than they save) and stay interpreted.
const CandidateMinLen = 2

// CandidateDefaultThreshold is the block-entry count at which the tier
// compiles when vm.Interp.JITThreshold is unset (vm uses this constant).
// Entries are counted only on non-sequential transfers, so a loop head
// reaches it after that many iterations. Compilation is cheap (operand
// pre-decode, no codegen), so the threshold errs low.
const CandidateDefaultThreshold = 16

// Candidate is one block judged against the JIT selection rule.
type Candidate struct {
	HotBlock
	Len uint32 // instructions in the run (End − Start + 1)
	Hot bool   // clears the threshold and the minimum length
}

// SelectCandidates applies the JIT selection rule to a profile's hot
// blocks at the given entry threshold (0 = the tier's default). The
// returned slice preserves the profile's deterministic score ranking and
// includes cold blocks (Hot=false) so near-misses are visible when
// tuning.
func SelectCandidates(f *File, threshold uint64) []Candidate {
	if threshold == 0 {
		threshold = CandidateDefaultThreshold
	}
	cands := make([]Candidate, 0, len(f.HotBlocks))
	for _, b := range f.HotBlocks {
		c := Candidate{HotBlock: b, Len: b.End - b.Start + 1}
		c.Hot = c.Len >= CandidateMinLen && b.Count >= threshold
		cands = append(cands, c)
	}
	return cands
}

// WriteCandidates renders the candidate view as text: one row per block,
// selection verdict first, ranked by score. top bounds the rows (0 =
// all).
func WriteCandidates(w io.Writer, f *File, threshold uint64, top int) error {
	if threshold == 0 {
		threshold = CandidateDefaultThreshold
	}
	cands := SelectCandidates(f, threshold)
	hot := 0
	for _, c := range cands {
		if c.Hot {
			hot++
		}
	}
	if _, err := fmt.Fprintf(w, "jit candidates: %d of %d blocks clear threshold %d (min len %d)\n",
		hot, len(cands), threshold, CandidateMinLen); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %-16s %-15s %5s %8s %12s %16s\n",
		"sel", "machine/env", "pc", "len", "count", "cycles", "score"); err != nil {
		return err
	}
	n := len(cands)
	if top > 0 && n > top {
		n = top
	}
	for _, c := range cands[:n] {
		sel := "-"
		if c.Hot {
			sel = "jit"
		}
		me := fmt.Sprintf("%s/%d", c.Machine, c.Env)
		pc := fmt.Sprintf("%#x..%#x", c.Start, c.End)
		if _, err := fmt.Fprintf(w, "%-4s %-16s %-15s %5d %8d %12d %16d\n",
			sel, me, pc, c.Len, c.Count, c.Cycles, c.Score); err != nil {
			return err
		}
	}
	return nil
}
