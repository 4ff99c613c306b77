package harness

import (
	"fmt"

	"varsim/internal/core"
	"varsim/internal/report"
)

// divergenceDigestNS is the digest cadence of the divergence study:
// 50 simulated microseconds, the varsim diff live-mode default.
const divergenceDigestNS = 50_000

// DivergenceStudy runs the divergence observatory over one perturbed
// OLTP space: every run records interval state digests, each run is
// diffed against run 0, and the fork points are attributed — when the
// paper's "runs vary" begins, and which simulated subsystem forks
// first. The pairwise diff of runs 0 and 1 is shown in full as the
// worked example.
func (h *H) DivergenceStudy() error {
	e := h.experiment("divergence/oltp", h.baseConfig(), "oltp", 500, 200, 0xD1)
	e.DigestIntervalNS = divergenceDigestNS
	b, ok := core.Replay(e.Spec())
	if !ok {
		base, err := e.Prepare()
		if err != nil {
			return err
		}
		if b, err = core.Branch(base, e.Spec()); err != nil {
			return err
		}
	}
	sp, sd := b.Space, b.Digests
	att := sd.Attribution(sp)

	rows := [][]string{}
	for _, f := range att.Forks {
		rows = append(rows, []string{f.Component, fmt.Sprintf("%d", f.Count)})
	}
	h.table("component\tfirst forks (of "+fmt.Sprintf("%d diverged runs", att.Diverged)+")", rows)

	fmt.Fprintln(h.opt.Out)
	report.WriteAttribution(h.opt.Out, att)

	fmt.Fprintln(h.opt.Out)
	report.WriteDivergence(h.opt.Out, "run 0", "run 1", sd.Diff(0, 1))
	report.WriteResultDelta(h.opt.Out, sp.Results[0], sp.Results[1])
	return nil
}
