// Package network simulates the paper's communication model (§2.1–2.2): a
// set of processors joined by reliable, authenticated links with a message
// delivery bound δ. The adversary may observe all traffic but cannot modify
// it or forge origins; those guarantees are inherent here because faulty
// behaviour is injected at the processors, never at the links.
package network

import (
	"fmt"
	"sort"
)

// Topology describes which processor pairs share a link. The paper's main
// analysis assumes a full mesh; §5 discusses general graphs and gives the
// two-clique counterexample, which TwoCliques constructs.
type Topology interface {
	// N returns the number of processors.
	N() int
	// Connected reports whether a and b share a link. A processor is always
	// connected to itself (loopback is free and instantaneous).
	Connected(a, b int) bool
	// Neighbors returns the sorted list of processors adjacent to a,
	// excluding a itself. The list is built on every call and is O(degree):
	// it is for nodes that talk to all of their neighbours. Code that needs a
	// few of them — the peer sampler — indexes with Degree and Neighbor.
	Neighbors(a int) []int
	// Degree returns len(Neighbors(a)) without building the list.
	Degree(a int) int
	// Neighbor returns Neighbors(a)[i], 0 ≤ i < Degree(a), without building
	// the list.
	Neighbor(a, i int) int
}

// FullMesh is the complete graph on n processors.
type FullMesh struct {
	n int
}

// NewFullMesh returns the complete topology on n processors.
func NewFullMesh(n int) *FullMesh {
	if n < 1 {
		panic(fmt.Sprintf("network: invalid size %d", n))
	}
	return &FullMesh{n: n}
}

// N implements Topology.
func (m *FullMesh) N() int { return m.n }

// Connected implements Topology.
func (m *FullMesh) Connected(a, b int) bool {
	return a >= 0 && a < m.n && b >= 0 && b < m.n
}

// Neighbors implements Topology.
func (m *FullMesh) Neighbors(a int) []int {
	out := make([]int, 0, m.n-1)
	for i := 0; i < m.n; i++ {
		if i != a {
			out = append(out, i)
		}
	}
	return out
}

// Degree implements Topology.
func (m *FullMesh) Degree(int) int { return m.n - 1 }

// Neighbor implements Topology: the sorted neighbour list of a is every id
// but a, so its i-th entry is i below a and i+1 from a on.
func (m *FullMesh) Neighbor(a, i int) int {
	if i < a {
		return i
	}
	return i + 1
}

// Graph is an arbitrary undirected topology.
type Graph struct {
	n   int
	adj [][]int // adj[a] holds a's neighbours in increasing order
}

// NewGraph returns an edgeless graph on n processors.
func NewGraph(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("network: invalid size %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge {a, b}. Self-loops are rejected
// (loopback is implicit).
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic("network: self-loop")
	}
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("network: edge (%d,%d) out of range [0,%d)", a, b, g.n))
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
}

// insertSorted adds v to the increasing list xs unless it is already there.
func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// N implements Topology.
func (g *Graph) N() int { return g.n }

// Connected implements Topology.
func (g *Graph) Connected(a, b int) bool {
	if a == b {
		return a >= 0 && a < g.n
	}
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return false
	}
	i := sort.SearchInts(g.adj[a], b)
	return i < len(g.adj[a]) && g.adj[a][i] == b
}

// Neighbors implements Topology.
func (g *Graph) Neighbors(a int) []int {
	return append(make([]int, 0, len(g.adj[a])), g.adj[a]...)
}

// Degree implements Topology.
func (g *Graph) Degree(a int) int { return len(g.adj[a]) }

// Neighbor implements Topology.
func (g *Graph) Neighbor(a, i int) int { return g.adj[a][i] }

// NewTwoCliques builds the counterexample of §5: 6f+2 processors arranged as
// two cliques of 3f+1 nodes each, with a perfect matching joining the i-th
// node of one clique to the i-th node of the other. The graph is
// (3f+1)-connected, yet the protocol cannot keep the cliques synchronized
// with each other. Clique A is processors [0, 3f] and clique B is
// [3f+1, 6f+1].
func NewTwoCliques(f int) *Graph {
	if f < 1 {
		panic("network: two-clique construction needs f >= 1")
	}
	size := 3*f + 1
	g := NewGraph(2 * size)
	for c := 0; c < 2; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	for i := 0; i < size; i++ {
		g.AddEdge(i, size+i)
	}
	return g
}

// NewCirculant builds the circulant graph C_n(1..d/2): processor i is
// adjacent to i±1, …, i±d/2 (mod n). Circulant graphs are d-regular with
// connectivity d and no sparse cut, which makes them the natural family for
// probing how little connectivity the protocol can live with (experiment
// E13). d must be even and satisfy 2 ≤ d < n.
func NewCirculant(n, d int) *Graph {
	if d%2 != 0 || d < 2 || d >= n {
		panic(fmt.Sprintf("network: circulant needs even 2 ≤ d < n, got d=%d n=%d", d, n))
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for k := 1; k <= d/2; k++ {
			j := (i + k) % n
			if !g.Connected(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// NewRing builds a cycle on n processors — a deliberately weak topology used
// in tests of graph handling.
func NewRing(n int) *Graph {
	if n < 3 {
		panic("network: ring needs n >= 3")
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}
