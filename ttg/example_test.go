package ttg_test

import (
	"fmt"
	"sort"

	"gottg/ttg"
)

// single-worker config keeps example output deterministic.
func exampleCfg() ttg.Config {
	c := ttg.OptimizedConfig(1)
	c.PinWorkers = false
	return c
}

// Example shows the minimal two-task pipeline: data flows from one template
// task to another along an edge.
func Example() {
	g := ttg.New(exampleCfg())
	e := ttg.NewEdge("data")

	double := g.NewTT("double", 1, 1, func(tc ttg.TaskContext) {
		tc.Send(0, tc.Key(), ttg.Value[int](tc, 0)*2)
	})
	show := g.NewTT("show", 1, 0, func(tc ttg.TaskContext) {
		fmt.Println("result:", ttg.Value[int](tc, 0))
	})
	double.Out(0, e)
	e.To(show, 0)

	g.MakeExecutable()
	g.Invoke(double, 0, 21)
	if err := g.Wait(); err != nil {
		panic(err)
	}
	// Output: result: 42
}

// ExampleTT_WithAggregator gathers a per-key number of inputs into one task
// (paper §V-D1's aggregator terminals).
func ExampleTT_WithAggregator() {
	g := ttg.New(exampleCfg())
	values := ttg.NewEdge("values")

	emit := g.NewTT("emit", 1, 1, func(tc ttg.TaskContext) {
		for i := 1; i <= 4; i++ {
			tc.Send(0, 0, i) // all four go to reducer key 0
		}
	})
	reduce := g.NewTT("reduce", 1, 0, func(tc ttg.TaskContext) {
		vals := ttg.AggregateValues[int](tc, 0)
		sort.Ints(vals) // aggregation order is unspecified
		sum := 0
		for _, v := range vals {
			sum += v
		}
		fmt.Println(vals, "sum:", sum)
	}).WithAggregator(0, func(uint64) int { return 4 })

	emit.Out(0, values)
	values.To(reduce, 0)
	g.MakeExecutable()
	g.InvokeControl(emit, 0)
	if err := g.Wait(); err != nil {
		panic(err)
	}
	// Output: [1 2 3 4] sum: 10
}

// ExampleTT_WithStreaming folds arriving items eagerly instead of keeping
// them (the pre-aggregator mechanism contrasted in §V-D1).
func ExampleTT_WithStreaming() {
	g := ttg.New(exampleCfg())
	values := ttg.NewEdge("values")

	emit := g.NewTT("emit", 1, 1, func(tc ttg.TaskContext) {
		for i := 1; i <= 5; i++ {
			tc.Send(0, 0, i)
		}
	})
	sum := g.NewTT("sum", 1, 0, func(tc ttg.TaskContext) {
		fmt.Println("sum:", ttg.Value[int](tc, 0))
	}).WithStreaming(0,
		func(uint64) int { return 5 },
		ttg.Reduce(0, func(acc, v int) int { return acc + v }))

	emit.Out(0, values)
	values.To(sum, 0)
	g.MakeExecutable()
	g.InvokeControl(emit, 0)
	if err := g.Wait(); err != nil {
		panic(err)
	}
	// Output: sum: 15
}

// ExampleTT_WithPriority shows priorities steering execution order under
// the LLP scheduler: among simultaneously released tasks, higher priority
// runs first.
func ExampleTT_WithPriority() {
	g := ttg.New(exampleCfg())
	e := ttg.NewEdge("work")

	gate := g.NewTT("gate", 1, 1, func(tc ttg.TaskContext) {
		for k := uint64(1); k <= 3; k++ {
			tc.SendControl(0, k)
		}
	})
	work := g.NewTT("work", 1, 0, func(tc ttg.TaskContext) {
		fmt.Println("key", tc.Key())
	}).WithPriority(func(key uint64) int32 { return int32(key) })

	gate.Out(0, e)
	e.To(work, 0)
	g.MakeExecutable()
	g.InvokeControl(gate, 0)
	if err := g.Wait(); err != nil {
		panic(err)
	}
	// Output:
	// key 3
	// key 2
	// key 1
}

// ExampleGraph_Dot renders the template task graph for documentation.
func ExampleGraph_Dot() {
	g := ttg.New(exampleCfg())
	e := ttg.NewEdge("flow")
	a := g.NewTT("produce", 1, 1, func(ttg.TaskContext) {})
	b := g.NewTT("consume", 1, 0, func(ttg.TaskContext) {})
	a.Out(0, e)
	e.To(b, 0)
	fmt.Print(g.Dot())
	g.MakeExecutable()
	if err := g.Wait(); err != nil {
		panic(err)
	}
	// Output:
	// digraph ttg {
	//   rankdir=LR;
	//   node [shape=record];
	//   tt0 [label="produce|in:1|out:1"];
	//   tt1 [label="consume|in:1|out:0"];
	//   tt0 -> tt1 [label="flow (0→0)"];
	// }
}
