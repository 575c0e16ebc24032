package sweep

import (
	"fmt"

	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/stats"
)

// Result is one with-NoC measurement: one DNN inference (or batch of
// inferences) through the NoC for one (platform, format, ordering) point,
// whether it came from a sweep grid or a direct Measure call. The string
// fields duplicate the typed Geometry/Ordering so the JSON form is
// self-describing without leaking the internal types into serialized
// output.
type Result struct {
	Platform string `json:"platform"`
	// Workload is the sweep-grid workload name the run came from (e.g.
	// "lenet"); Model is the model's display name (e.g. "LeNet"). Direct
	// Measure calls leave Workload empty.
	Workload     string        `json:"workload"`
	Model        string        `json:"model"`
	Geometry     flit.Geometry `json:"-"`
	Format       string        `json:"format"`
	LinkBits     int           `json:"link_bits"`
	Ordering     flit.Ordering `json:"-"`
	OrderingName string        `json:"ordering"`
	// Coding is the link coding's display name ("none" when uncoded).
	Coding string `json:"coding"`
	// Topology is the canonical interconnect name ("" = the default mesh,
	// omitted from JSON so pre-topology rows are unchanged).
	Topology string `json:"topology,omitempty"`
	// Seed is the weight/input seed of a sweep row (0 for direct Measure
	// calls unless the caller sets it).
	Seed int64 `json:"seed"`
	// Batch is the inference batch size of the run (1 = serial Infer).
	Batch int `json:"batch"`
	// Precision is the uniform lane-width override the sweep's precision
	// axis applied (0 when unused — the geometry's own format ran).
	Precision int   `json:"precision,omitempty"`
	TotalBT   int64 `json:"total_bt"`
	Cycles    int64 `json:"cycles"`
	Packets   int64 `json:"packets"`
	// Flits counts total injected flits (task and result packets, headers
	// included) — the traffic volume narrower precisions shrink.
	Flits int64 `json:"flits,omitempty"`
	// RouterFlits counts router-to-router link traversals; divided by Flits
	// it is the mean hop count, the distance metric topologies trade
	// against wiring (torus wrap links cut it, cmesh concentration too).
	RouterFlits int64 `json:"router_flits,omitempty"`
	// MACBitOps, WeightRegBits and FlitBits are the engine's per-component
	// activity counters (see accel.EnergyCounters); together with TotalBT
	// (= link transitions) they price a per-component energy estimate.
	MACBitOps     int64 `json:"mac_bit_ops,omitempty"`
	WeightRegBits int64 `json:"weight_reg_bits,omitempty"`
	FlitBits      int64 `json:"flit_bits,omitempty"`
	// Throughput is inferences per thousand simulated cycles;
	// AvgLatencyCycles is the mean per-inference latency. For batch 1 both
	// degenerate to the single inference's cycle count.
	Throughput       float64 `json:"throughput_inf_per_kcycle"`
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// ReductionPct is relative to the group's Baseline run (0 when the
	// sweep did not include the Baseline ordering).
	ReductionPct float64 `json:"reduction_pct"`
}

// RenderTable renders the results with the repository's standard table
// formatter, one row per grid point in sweep order.
func RenderTable(results []Result) string {
	t := stats.NewTable("Platform", "Topo", "Model", "Format", "Prec", "Ordering", "Coding", "Seed", "Batch",
		"Total BT", "Flits", "Cycles", "Packets", "Inf/kcycle", "Reduction %")
	for _, r := range results {
		prec := "-"
		if r.Precision > 0 {
			prec = fmt.Sprintf("%d", r.Precision)
		}
		t.AddRowf(r.Platform, noc.TopologyDisplayName(r.Topology), r.Model, r.Format, prec, r.OrderingName, r.Coding, r.Seed, r.Batch,
			r.TotalBT, r.Flits, r.Cycles, r.Packets, r.Throughput, r.ReductionPct)
	}
	return t.String()
}
