package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"unsafe"
)

// TestPlanMergesEqualSimulations: an "all" query asks for 39 runs per
// application (33 records and six anchors) but only 23 distinct
// simulations. Figure 6's fast runs, Table 4, Figure 8's base systems
// and the topology sweep's crossbar reuse Figure 5's; Figure 6's slow
// runs and Figure 7's 4x-latency runs do not.
func TestPlanMergesEqualSimulations(t *testing.T) {
	for _, c := range []struct {
		apps       []string
		runs, sims int
	}{
		{nil, 273, 161},
		{[]string{"radix"}, 39, 23},
	} {
		p, err := planQuery(Query{Experiment: "all", Apps: c.apps, Scale: 8}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.runs != c.runs || len(p.tasks) != c.sims {
			t.Errorf("apps %v: %d runs, %d simulations; want %d, %d", c.apps, p.runs, len(p.tasks), c.runs, c.sims)
		}
	}

	p, err := planQuery(Query{Experiment: "all", Apps: []string{"radix"}, Scale: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	taskOf := map[*Run]*task{}
	for _, t := range p.tasks {
		for _, run := range t.runs {
			taskOf[run] = t
		}
	}
	sim := func(experiment, label string) *task {
		t.Helper()
		for _, r := range p.results {
			if r.Name == experiment {
				if run := r.Runs["radix"][label]; run != nil {
					return taskOf[run]
				}
			}
		}
		t.Fatalf("no run %s/%s", experiment, label)
		return nil
	}
	fig5 := map[*task]bool{}
	for _, s := range []string{"CC-NUMA", "Rep", "Mig", "MigRep", "R-NUMA", "R-NUMA-Inf"} {
		fig5[sim("fig5", s)] = true
	}
	for _, same := range [][2]string{
		{"fig6", "MigRep-Fast"}, {"fig6", "R-NUMA-Fast"},
		{"table4", "MigRep"}, {"fig8", "R-NUMA"},
		{"toposweep", "MigRep@crossbar"}, {"toposweep", "CC-NUMA@crossbar"},
	} {
		if !fig5[sim(same[0], same[1])] {
			t.Errorf("%s/%s does not reuse a Figure 5 simulation", same[0], same[1])
		}
	}
	for _, apart := range [][2]string{
		{"fig6", "MigRep-Slow"}, {"fig6", "R-NUMA-Slow"},
		{"fig7", "CC-NUMA"}, {"fig7", "MigRep"}, {"fig7", "R-NUMA"},
		{"toposweep", "MigRep@ring"},
	} {
		if fig5[sim(apart[0], apart[1])] {
			t.Errorf("%s/%s merged with a Figure 5 simulation", apart[0], apart[1])
		}
	}
}

// TestSharedRunsStayReadOnly: records of a merged simulation share its
// statistics, anchor and telemetry collector. Rendering every output —
// text, CSV, JSON and telemetry artifacts — must leave them exactly as
// the simulations left them.
func TestSharedRunsStayReadOnly(t *testing.T) {
	results, err := RunQuery(context.Background(), Query{Experiment: "all", Apps: []string{"migratory"}, Scale: 8},
		Options{Parallel: 4, Audit: true, Telemetry: &TelemetryOptions{Timeline: true}})
	if err != nil {
		t.Fatal(err)
	}
	var shared []any
	seen := map[any]int{}
	for _, r := range results {
		for _, app := range r.AppOrder {
			for _, label := range r.Systems {
				run := r.Runs[app][label]
				for _, v := range []any{run.Stats, run.Base, run.Telemetry} {
					if seen[v]++; seen[v] == 1 {
						shared = append(shared, v)
					}
				}
			}
		}
	}
	col := results[0].Runs["migratory"]["MigRep"].Telemetry
	if seen[col] < 2 {
		t.Fatal("Figure 5's MigRep collector serves one record: the query merged nothing")
	}
	if len(col.Events()) == 0 {
		t.Fatal("Figure 5's MigRep timeline is empty: there is nothing to keep read-only")
	}
	before := make([]any, len(shared))
	for i, v := range shared {
		before[i] = deepCopy(reflect.ValueOf(v)).Interface()
	}

	var text, csv bytes.Buffer
	var records []Record
	for _, r := range results {
		r.WriteText(&text)
		if err := r.WriteCSVRows(&csv); err != nil {
			t.Fatal(err)
		}
		records = append(records, r.Records()...)
		if err := r.WriteTelemetry(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RecordsJSON(records); err != nil {
		t.Fatal(err)
	}
	for i, v := range shared {
		if !reflect.DeepEqual(before[i], v) {
			t.Errorf("rendering changed shared %T #%d", v, i)
		}
	}
}

// deepCopy returns a copy of v that shares no memory with it,
// unexported fields included.
func deepCopy(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			c.Set(reflect.New(v.Type().Elem()))
			c.Elem().Set(deepCopy(v.Elem()))
		}
	case reflect.Struct:
		if !v.CanAddr() {
			a := reflect.New(v.Type()).Elem()
			a.Set(v)
			v = a
		}
		for i := range v.NumField() {
			exposed(c.Field(i)).Set(deepCopy(exposed(v.Field(i))))
		}
	case reflect.Slice:
		if !v.IsNil() {
			c.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := range v.Len() {
				c.Index(i).Set(deepCopy(v.Index(i)))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
	case reflect.Map:
		if !v.IsNil() {
			c.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
			for it := v.MapRange(); it.Next(); {
				c.SetMapIndex(deepCopy(it.Key()), deepCopy(it.Value()))
			}
		}
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		panic("deepCopy: unsupported kind " + v.Kind().String())
	default:
		c.Set(v)
	}
	return c
}

// exposed returns an addressable v with the read-only flag of an
// unexported field lifted, so that deepCopy can read and set it.
func exposed(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
