package bench

import (
	"fmt"
	"io"
	"strings"

	"passcloud/internal/core"
	"passcloud/internal/sim"
)

// Text renderers producing the paper-style tables that cmd/provbench (and
// EXPERIMENTS.md) print.

func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// RenderTable1 prints the property matrix.
func RenderTable1(w io.Writer, rows []core.PropertyReport) {
	fmt.Fprintln(w, "Table 1: Properties comparison (empirically probed)")
	fmt.Fprintf(w, "%-28s %6s %6s %6s %6s\n", "Property", "S3fs", "P1", "P2", "P3")
	by := make(map[string]core.PropertyReport)
	for _, r := range rows {
		by[r.Protocol] = r
	}
	line := func(name string, get func(core.PropertyReport) bool) {
		fmt.Fprintf(w, "%-28s %6s %6s %6s %6s\n", name,
			check(get(by["S3fs"])), check(get(by["P1"])), check(get(by["P2"])), check(get(by["P3"])))
	}
	line("Provenance Data-Coupling", func(r core.PropertyReport) bool { return r.DataCoupling })
	line("Multi-object Causal Order", func(r core.PropertyReport) bool { return r.CausalOrdering })
	line("Efficient Query", func(r core.PropertyReport) bool { return r.EfficientQuery })
	line("Data-Indep. Persistence", func(r core.PropertyReport) bool { return r.Persistence })
}

// RenderTable2 prints the per-service upload times.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Time to upload 50MB of provenance to each service")
	fmt.Fprintf(w, "%-10s %8s %12s %10s\n", "Service", "Conns", "Time (s)", "Requests")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.1f %10d\n", r.Service, r.Conns, r.Elapsed.Seconds(), r.Requests)
	}
}

// RenderTable3 prints the data/operation overheads.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Data transfer and operation overheads (Blast micro)")
	fmt.Fprintf(w, "%-6s %16s %14s %10s %10s\n", "", "Data (MB)", "Data ovh", "Ops", "Ops ovh")
	for _, r := range rows {
		if r.Protocol == "S3fs" {
			fmt.Fprintf(w, "%-6s %16.2f %14s %10d %10s\n", r.Protocol, r.DataMB, "-", r.Ops, "-")
			continue
		}
		fmt.Fprintf(w, "%-6s %16.2f %13.2f%% %10d %9.1f%%\n", r.Protocol, r.DataMB, r.DataPct, r.Ops, r.OpsPct)
	}
}

// RenderTable4 prints the per-workload costs.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: Cost for each benchmark (USD, includes commit daemon)")
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "", "Nightly", "Blast", "Challenge")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10.2f %10.2f %12.2f\n", r.Protocol, r.Nightly, r.Blast, r.Challenge)
	}
}

// RenderTable5 prints query performance.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: Query performance")
	fmt.Fprintf(w, "%-5s %-9s %12s %12s %10s %8s\n", "Query", "Backend", "Seq (s)", "Par (s)", "MB", "Ops")
	for _, r := range rows {
		par := "-"
		if r.Parallel > 0 {
			par = fmt.Sprintf("%.2f", r.Parallel.Seconds())
		}
		fmt.Fprintf(w, "%-5s %-9s %12.3f %12s %10.2f %8d\n",
			r.Query, r.Backend, r.Sequential.Seconds(), par, r.MB, r.Ops)
	}
}

// RenderFig3 prints the microbenchmark bars.
func RenderFig3(w io.Writer, ec2, uml []MicroResult) {
	fmt.Fprintln(w, "Figure 3: Microbenchmark elapsed times (s)")
	fmt.Fprintf(w, "%-8s %10s %12s\n", "Config", "EC2", "EC2+UML")
	for i := range ec2 {
		fmt.Fprintf(w, "%-8s %10.1f %12.1f\n", ec2[i].Protocol, ec2[i].Elapsed.Seconds(), uml[i].Elapsed.Seconds())
	}
	fmt.Fprintf(w, "%-8s", "ovh%")
	for _, r := range ec2 {
		if r.Protocol != "S3fs" {
			fmt.Fprintf(w, "  %s=%.1f%%", r.Protocol, r.OverheadPct)
		}
	}
	fmt.Fprintln(w)
}

// RenderFig4 prints one era's workload bars grouped as in the figure.
func RenderFig4(w io.Writer, era sim.Era, cells []Fig4Cell) {
	fmt.Fprintf(w, "Figure 4 (%s): Workload elapsed times (s)\n", era)
	fmt.Fprintf(w, "%-7s %-10s %8s %8s %8s %8s   %s\n", "Site", "Workload", "S3fs", "P1", "P2", "P3", "overheads")
	type key struct {
		site sim.Site
		wl   string
	}
	groups := make(map[key][]Fig4Cell)
	var order []key
	for _, c := range cells {
		k := key{c.Site, c.Workload}
		if len(groups[k]) == 0 {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		g := groups[k]
		vals := make(map[string]Fig4Cell)
		for _, c := range g {
			vals[c.Protocol] = c
		}
		fmt.Fprintf(w, "%-7s %-10s %8.0f %8.0f %8.0f %8.0f   P1=%.1f%% P2=%.1f%% P3=%.1f%%\n",
			k.site, k.wl,
			vals["S3fs"].ElapsedSec, vals["P1"].ElapsedSec, vals["P2"].ElapsedSec, vals["P3"].ElapsedSec,
			vals["P1"].OverheadPct, vals["P2"].OverheadPct, vals["P3"].OverheadPct)
	}
}

// RenderConnSweep prints the connection-scaling ablation.
func RenderConnSweep(w io.Writer, points []ConnSweepPoint) {
	fmt.Fprintln(w, "Ablation: connection scaling (50MB provenance upload, MB/s)")
	byService := make(map[string][]ConnSweepPoint)
	var order []string
	for _, p := range points {
		if len(byService[p.Service]) == 0 {
			order = append(order, p.Service)
		}
		byService[p.Service] = append(byService[p.Service], p)
	}
	for _, svc := range order {
		fmt.Fprintf(w, "%-10s", svc)
		for _, p := range byService[svc] {
			fmt.Fprintf(w, "  %d conns: %6.2f", p.Conns, p.Throughput)
		}
		fmt.Fprintln(w)
	}
}

// RenderChunkSweep prints the WAL chunk-size ablation.
func RenderChunkSweep(w io.Writer, points []ChunkSweepPoint) {
	fmt.Fprintln(w, "Ablation: P3 WAL chunk size (2MB provenance log phase)")
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Chunk", "Time (s)", "Messages")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %10.1f %10d\n", byteSize(p.ChunkBytes), p.Elapsed.Seconds(), p.Messages)
	}
}

// RenderBatchSweep prints the batch-size ablation.
func RenderBatchSweep(w io.Writer, points []BatchSweepPoint) {
	fmt.Fprintln(w, "Ablation: BatchPutAttributes size (1MB provenance)")
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Batch", "Time (s)", "Calls")
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %10.1f %10d\n", p.BatchSize, p.Elapsed.Seconds(), p.Calls)
	}
}

// RenderConsistency prints the consistency-mode ablation.
func RenderConsistency(w io.Writer, points []ConsistencyPoint) {
	fmt.Fprintln(w, "Ablation: consistency model vs immediate coupling checks")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %3d checks, %3d transient detection failures\n",
			p.Mode, p.Checks, p.TransientFails)
	}
}

func byteSize(n int) string {
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dKB", n/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// Banner prints a section separator.
func Banner(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
