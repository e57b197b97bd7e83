package bench

import (
	"repro/internal/blinkstore"
	"repro/internal/core"
	"repro/internal/remote"
)

// Registry builds the remote-verification spec registry over every
// evaluation, exploration and linearize-only subject: one factory per
// subject name (spec + replayer of the correct implementation — the server
// checks *logs*, so it needs only the specification side, plus the
// linearizability checker for "linearize" sessions), and the composed
// Fig. 10 stack under its modular name for Hello.Modular sessions.
func Registry() *remote.Registry {
	r := remote.NewRegistry()
	all := append(AllSubjects(), ExplorationSubjects()...)
	all = append(all, WeakMemorySubjects()...)
	all = append(all, TemporalSubjects()...)
	all = append(all, LinearizeOnlySubjects()...)
	for _, s := range all {
		t := s.Correct
		f := remote.SpecFactory{Name: s.Name, NewSpec: t.NewSpec}
		if t.NewReplayer != nil {
			f.NewReplayer = func() core.Replayer { return t.NewReplayer() }
		}
		f.NewLinearizer = NewLinearizer(t.NewSpec)
		f.NewTemporal = NewTemporal(s.Name)
		if err := r.Register(f); err != nil {
			panic(err) // subject names are unique by construction
		}
	}
	if err := r.Register(remote.SpecFactory{
		Name:        "BLinkTree+Store",
		NewSpec:     blinkstore.ComposedTarget(6, blinkstore.BugNone).NewSpec,
		NewModules:  blinkstore.Modules,
		NewTemporal: NewTemporal("BLinkTree+Store"),
	}); err != nil {
		panic(err)
	}
	return r
}
