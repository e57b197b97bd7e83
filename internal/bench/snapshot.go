package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// Snapshot is the machine-readable form of one vyrdbench run: the rows of
// whichever tables were regenerated, plus enough environment description to
// interpret the absolute numbers. Checked-in snapshots (BENCH_PR2.json)
// record the box a PR's performance claims were measured on.
type Snapshot struct {
	GoVersion string
	GOOS      string
	GOARCH    string
	NumCPU    int

	Table1      []Table1Row      `json:",omitempty"`
	Table2      []Table2Row      `json:",omitempty"`
	Table3      []Table3Row      `json:",omitempty"`
	LogPipeline []LogPipelineRow `json:",omitempty"`
	Explore     []ExploreRow     `json:",omitempty"`
	Durability  *DurabilityRow   `json:",omitempty"`
	Linearize   []LinearizeRow   `json:",omitempty"`
	// LinearizeParallel is the worker-pool width sweep over one partitioned
	// history (rides along with -table linearize).
	LinearizeParallel []LinearizeParallelRow `json:",omitempty"`
	// LinearizeMemo is the segment memo cache hit-rate measurement over
	// repeated identical histories (rides along with -table linearize).
	LinearizeMemo []LinearizeMemoRow `json:",omitempty"`
	// Fleet is the multi-session capacity row: concurrent sessions held
	// open against one scheduler-mode server and the aggregate checked
	// entries/sec (-table fleet).
	Fleet []FleetRow `json:",omitempty"`
	// LTL is the temporal-engine cost grid (props x formula shape) and
	// LTLOnline the refinement-vs-ltl online pipeline A/B (-table ltl).
	LTL       []LTLRow       `json:",omitempty"`
	LTLOnline []LTLOnlineRow `json:",omitempty"`
}

// NewSnapshot returns a Snapshot describing the current environment, ready
// for table rows.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
