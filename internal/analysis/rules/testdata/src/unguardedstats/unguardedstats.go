// Package unguardedstats is golden-test data for the unguardedstats
// analyzer: it spawns a goroutine, so lock-free structs whose methods
// mutate fields are flagged.
package unguardedstats

import "sync"

// Stats is a plain counter block.
type Stats struct{ Captures, Bytes int }

// Gateway carries no lock.
type Gateway struct {
	stats Stats
	last  int
}

// Process mutates fields without synchronization.
func (g *Gateway) Process(n int) {
	g.stats.Captures++ // want "unguardedstats: g.stats.Captures written without synchronization"
	g.stats.Bytes += n // want "unguardedstats: g.stats.Bytes written without synchronization"
	g.last = n         // want "unguardedstats: g.last written without synchronization"
}

// Spawn makes the package concurrent.
func (g *Gateway) Spawn() {
	go g.Process(1)
}

// Guarded carries a mutex; the dataflow proof checks each write path.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Bump locks around its mutation: proven, not flagged.
func (s *Guarded) Bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Sneak mutates the guarded field with no lock on any path: flagged.
func (s *Guarded) Sneak() {
	s.n++ // want "unguardedstats: s.n written without holding s.mu"
}

// Local mutation of non-receiver state is not flagged.
func (g *Gateway) Peek() int {
	x := 0
	x++
	return x + g.last
}

// Proven exercises the dominator-grade cases: deferred unlock, explicit
// unlock, branches, and the callers-hold-mu helper idiom.
type Proven struct {
	mu     sync.Mutex
	count  int
	closed bool
	free   int // never written under the lock: not a guarded field
}

// Add's deferred Unlock runs at exit, so the lock is held on every path
// through the body, including both branches: proven, not flagged.
func (p *Proven) Add(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > 1 {
		p.count += n
		return
	}
	p.count++
}

// Close writes after the explicit Unlock killed the fact: flagged.
func (p *Proven) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.count = 0 // want "unguardedstats: p.count written without holding p.mu"
}

// Racy locks on only one branch, so the merge point holds no must-fact.
func (p *Proven) Racy(fast bool) {
	if !fast {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	p.count++ // want "unguardedstats: p.count written without holding p.mu"
}

// bump is the callers-hold-mu helper idiom: every caller in the package
// provably holds the lock at the callsite, so the write is proven.
func (p *Proven) bump() {
	p.count++
}

// Tick calls the helper under the lock: both proven, not flagged.
func (p *Proven) Tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bump()
}

// Reset writes a field no method ever locks around; with no guarded-write
// evidence the rule stays quiet (the author may synchronize externally).
func (p *Proven) Reset() {
	p.free = 0
}

// Leaky is the helper idiom gone wrong: one caller holds the lock, another
// does not, so the helper's entry facts drop and its write is flagged.
type Leaky struct {
	mu sync.Mutex
	n  int
}

func (l *Leaky) grow() {
	l.n++ // want "unguardedstats: l.n written without holding l.mu"
}

// Good holds the lock around the helper call.
func (l *Leaky) Good() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.grow()
	l.n = l.n * 2
}

// Bad calls the same helper lockless, poisoning its entry facts.
func (l *Leaky) Bad() {
	l.grow()
}
