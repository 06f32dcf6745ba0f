// Fixture for the maporder analyzer: ranging over a map is fine until the
// loop body has order-sensitive effects with no dominating sort.
package maporder

import (
	"fmt"
	"sort"
)

// Keys appends map keys to an escaping slice with no sort (true positive).
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Dump prints in iteration order (true positive).
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// SortedKeys is the collect-then-sort idiom (true negative).
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sum aggregates commutatively (true negative).
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// PerKey appends only to per-iteration state fetched by key, so order
// across keys cannot matter (true negative).
func PerKey(m map[string][]int, extra map[string]int) map[string][]int {
	for k, v := range extra {
		xs := m[k]
		xs = append(xs, v)
		m[k] = xs
	}
	return m
}

// Values demonstrates a justified suppression.
func Values(m map[string]int) []int {
	var vals []int
	for _, v := range m { //lint:allow maporder fixture demonstrates a justified suppression
		vals = append(vals, v)
	}
	return vals
}

// launcher stands in for sim.Sim's Sequence entry point.
type launcher interface {
	Sequence(n int, at func(i int) int64, fn func(i int))
}

// Launch queues one sequence per map entry, and so reserves their sequence
// numbers in iteration order (true positive).
func Launch(s launcher, m map[string][]int64) {
	for _, starts := range m {
		s.Sequence(len(starts), func(i int) int64 { return starts[i] }, func(int) {})
	}
}

// slot stands in for sim.Slot.
type slot struct{}

// reserver stands in for sim.Sim's Reserve entry point.
type reserver interface {
	Reserve(at int64) slot
}

// ReserveAll reserves one slot per map entry, and so takes their sequence
// numbers in iteration order, though it only writes them into a map (true
// positive).
func ReserveAll(s reserver, m map[string]int64) map[string]slot {
	slots := make(map[string]slot, len(m))
	for k, at := range m {
		slots[k] = s.Reserve(at)
	}
	return slots
}

// actor stands in for sim.Actor.
type actor interface{ Fire() }

// timers stands in for sim.Sim's Actor entry points.
type timers interface {
	AfterActor(delay int64, a actor)
}

// ArmAll arms one timer per map entry through the Actor form, and so gives
// them sequence numbers in iteration order (true positive).
func ArmAll(s timers, m map[string]actor) {
	for _, a := range m {
		s.AfterActor(1, a)
	}
}
