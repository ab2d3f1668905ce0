package obs

import "raxmlcell/internal/likelihood"

// PublishMeter copies every field of an aggregated kernel meter into the
// registry as counters under the given prefix (e.g. "kernel."). Meter
// fields are cumulative totals, so republishing after each completed job
// keeps the /metrics view current without sharing the meter itself across
// workers.
func PublishMeter(r *Registry, prefix string, m *likelihood.Meter) {
	if r == nil || m == nil {
		return
	}
	set := func(name string, v uint64) { r.Counter(prefix + name).Store(v) }
	set("newview_calls", m.NewviewCalls)
	set("makenewz_calls", m.MakenewzCalls)
	set("evaluate_calls", m.EvaluateCalls)
	set("newton_iters", m.NewtonIters)
	set("muls", m.Muls)
	set("adds", m.Adds)
	set("flops", m.Flops())
	set("exps", m.Exps)
	set("logs", m.Logs)
	set("scale_checks", m.ScaleChecks)
	set("scale_events", m.ScaleEvents)
	set("small_loop_iters", m.SmallLoopIters)
	set("big_loop_iters", m.BigLoopIters)
	set("combine_rows", m.CombineRows)
	set("class_passes", m.ClassPasses)
	set("bytes_streamed", m.BytesStreamed)
	set("tip_tip_calls", m.TipTipCalls)
	set("tip_inner_calls", m.TipInnerCalls)
	set("inner_inner_calls", m.InnerInnerCalls)
	set("cache_hits", m.CacheHits)
	set("shared_hits", m.SharedHits)
}
