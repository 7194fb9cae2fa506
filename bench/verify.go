package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"unicache"
)

// The verification pass: a fixed 20 000-row trace goes through both
// patterns on a fresh embedded engine with `within 3600 SECS` (so no
// partial expires), and the number of matches each pattern emits must
// equal a brute-force reference that restates the documented semantics
// as one independent forward scan per candidate start event
// (skip-till-next-match: partial matches never interact).

const verifyRows = 20_000

// vEvent is one committed event as the reference sees it.
type vEvent struct {
	ts   int64
	halt bool // topic Halts (sorts before Stocks on equal ts)
	seq  uint64
	name string
	vol  int64
}

func verifyPatterns(env *env) []string {
	eng, err := unicache.NewEmbedded(unicache.Config{TimerPeriod: -1, PrintWriter: io.Discard})
	if err != nil {
		return []string{err.Error()}
	}
	defer func() { _ = eng.Close() }()
	if err := execAll(eng, ddlStocks, ddlHalts); err != nil {
		return []string{err.Error()}
	}
	var mu sync.Mutex
	var evs []vEvent
	collect := func(halt bool) func(*unicache.Event) {
		return func(ev *unicache.Event) {
			e := vEvent{ts: int64(ev.Tuple.TS), halt: halt, seq: ev.Tuple.Seq}
			e.name, _ = ev.Tuple.Vals[stockName].AsStr()
			if !halt {
				e.vol, _ = ev.Tuple.Vals[stockVol].AsInt()
			}
			mu.Lock()
			evs = append(evs, e)
			mu.Unlock()
		}
	}
	if _, err := eng.Watch("Stocks", collect(false)); err != nil {
		return []string{err.Error()}
	}
	if _, err := eng.Watch("Halts", collect(true)); err != nil {
		return []string{err.Error()}
	}
	var got [2]int
	var drainers sync.WaitGroup
	var autos []unicache.Automaton
	for i, src := range []string{progRun("3600 SECS"), progNoHalt("3600 SECS")} {
		a, err := eng.Register(src, unicache.EventBuffer(1<<16))
		if err != nil {
			return []string{err.Error()}
		}
		autos = append(autos, a)
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for range a.Events() {
				got[i]++
			}
		}()
	}
	p := patternProducer(eng, env.in)
	sent := 0
	for sent < verifyRows {
		n, err := p.call(now())
		if err != nil {
			return []string{err.Error()}
		}
		sent += n
	}
	// One punctuation later than every event lifts the watermark past
	// the whole trace, so every decidable match completes.
	time.Sleep(time.Millisecond)
	if err := eng.Cache().TickTimer(); err != nil {
		return []string{err.Error()}
	}
	if !unicache.WaitIdle(eng, 10*time.Second) {
		return []string{"verification pass: automata not idle after 10s"}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(evs)
		mu.Unlock()
		if n >= sent || time.Now().After(deadline) {
			break
		}
	}
	for _, a := range autos {
		_ = a.Close()
	}
	drainers.Wait()

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.halt != b.halt {
			return a.halt
		}
		return a.seq < b.seq
	})
	want := [2]int{referenceRun(evs), referenceNoHalt(evs)}
	if env.breakIt {
		want[0]++
	}
	var bad []string
	for i, name := range []string{"run", "nohalt"} {
		if want[i] == 0 {
			bad = append(bad, fmt.Sprintf("pattern %s: the reference finds no match in the verification trace", name))
		}
		if got[i] != want[i] {
			bad = append(bad, fmt.Sprintf("pattern %s: engine emitted %d matches, reference says %d", name, got[i], want[i]))
		}
	}
	return bad
}

// referenceRun counts matches of `a then b+ then c`: a start with
// volume > 9900; then same-symbol events with volume > 5000 accumulate
// as b; once there is at least one b, the first same-symbol event with
// volume < 200 closes the match.
func referenceRun(evs []vEvent) int {
	matches := 0
	for i, a := range evs {
		if a.halt || a.vol <= 9900 {
			continue
		}
		bs := 0
		for _, e := range evs[i+1:] {
			if e.halt || e.name != a.name {
				continue
			}
			if bs > 0 && e.vol < 200 {
				matches++
				break
			}
			if e.vol > 5000 {
				bs++
			}
		}
	}
	return matches
}

// referenceNoHalt counts matches of `s1 then !h then s2`: a start with
// volume < 300; a halt of its symbol before the next same-symbol event
// with volume > 9900 kills it, that event completes it.
func referenceNoHalt(evs []vEvent) int {
	matches := 0
	for i, s1 := range evs {
		if s1.halt || s1.vol >= 300 {
			continue
		}
	scan:
		for _, e := range evs[i+1:] {
			switch {
			case e.name != s1.name:
			case e.halt:
				break scan
			case e.vol > 9900:
				matches++
				break scan
			}
		}
	}
	return matches
}
