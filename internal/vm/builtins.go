package vm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"unicache/internal/gapl"
	"unicache/internal/types"
)

// materialize converts an event value into its sequence form; every other
// value passes through. Used wherever an automaton hands a subscription
// variable to send(), publish(), Sequence() or append().
func materialize(v types.Value) types.Value {
	if ev := v.Event(); ev != nil {
		return types.SeqV(ev.AsSequence())
	}
	return v
}

func (m *VM) callBuiltin(id gapl.BuiltinID, args []types.Value) (types.Value, error) {
	switch id {
	case gapl.BSequence:
		s := types.NewSequenceCap(len(args))
		for _, a := range args {
			s.Append(materialize(a))
		}
		return types.SeqV(s), nil

	case gapl.BMap:
		kind, _ := args[0].AsInt()
		return types.MapV(types.NewMap(types.Kind(kind))), nil

	case gapl.BWindow:
		kind, _ := args[0].AsInt()
		mode, _ := args[1].AsInt()
		n, ok := args[2].NumAsInt()
		if !ok {
			return types.Nil, fmt.Errorf("Window() constraint must be numeric, got %s", args[2].Kind())
		}
		switch mode {
		case 1: // ROWS
			w, err := types.NewRowWindow(types.Kind(kind), int(n))
			if err != nil {
				return types.Nil, err
			}
			return types.WinV(w), nil
		case 2: // SECS
			w, err := types.NewTimeWindow(types.Kind(kind), time.Duration(n)*time.Second)
			if err != nil {
				return types.Nil, err
			}
			return types.WinV(w), nil
		case 3: // MSECS
			w, err := types.NewTimeWindow(types.Kind(kind), time.Duration(n)*time.Millisecond)
			if err != nil {
				return types.Nil, err
			}
			return types.WinV(w), nil
		}
		return types.Nil, fmt.Errorf("Window() mode must be ROWS, SECS or MSECS")

	case gapl.BIdentifier:
		if len(args) == 1 {
			return types.Ident(types.KeyString(materialize(args[0]))), nil
		}
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = types.KeyString(materialize(a))
		}
		return types.Ident(strings.Join(parts, "|")), nil

	case gapl.BIterator:
		switch {
		case args[0].Map() != nil:
			return types.IterV(types.NewMapIterator(args[0].Map())), nil
		case args[0].Win() != nil:
			return types.IterV(types.NewWindowIterator(args[0].Win())), nil
		case args[0].Seq() != nil:
			return types.IterV(types.NewSequenceIterator(args[0].Seq())), nil
		}
		return types.Nil, fmt.Errorf("Iterator() needs a map, window or sequence, got %s", args[0].Kind())

	case gapl.BString:
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.String())
		}
		return types.Str(b.String()), nil

	case gapl.BLookup:
		return m.lookup(args[0], args[1])
	case gapl.BInsert:
		return types.Nil, m.insert(args[0], args[1], args[2])
	case gapl.BHasEntry:
		return m.hasEntry(args[0], args[1])
	case gapl.BRemove:
		return m.remove(args[0], args[1])
	case gapl.BMapSize:
		return m.mapSize(args[0])

	case gapl.BHasNext:
		it := args[0].Iter()
		if it == nil {
			return types.Nil, fmt.Errorf("hasNext() needs an iterator, got %s", args[0].Kind())
		}
		return types.Bool(it.HasNext()), nil
	case gapl.BNext:
		it := args[0].Iter()
		if it == nil {
			return types.Nil, fmt.Errorf("next() needs an iterator, got %s", args[0].Kind())
		}
		return it.Next(), nil

	case gapl.BSeqElement:
		seq := args[0].Seq()
		if seq == nil {
			if ev := args[0].Event(); ev != nil {
				seq = ev.AsSequence()
			}
		}
		if seq == nil {
			return types.Nil, fmt.Errorf("seqElement() needs a sequence, got %s", args[0].Kind())
		}
		i, ok := args[1].NumAsInt()
		if !ok {
			return types.Nil, fmt.Errorf("seqElement() index must be int, got %s", args[1].Kind())
		}
		if i < 0 || int(i) >= seq.Len() {
			return types.Nil, fmt.Errorf("seqElement() index %d out of range (len %d)", i, seq.Len())
		}
		return seq.At(int(i)), nil

	case gapl.BSeqSize:
		seq := args[0].Seq()
		if seq == nil {
			return types.Nil, fmt.Errorf("seqSize() needs a sequence, got %s", args[0].Kind())
		}
		return types.Int(int64(seq.Len())), nil

	case gapl.BSeqSet:
		seq := args[0].Seq()
		if seq == nil {
			return types.Nil, fmt.Errorf("seqSet() needs a sequence, got %s", args[0].Kind())
		}
		i, ok := args[1].NumAsInt()
		if !ok {
			return types.Nil, fmt.Errorf("seqSet() index must be int, got %s", args[1].Kind())
		}
		if !seq.Set(int(i), materialize(args[2])) {
			return types.Nil, fmt.Errorf("seqSet() index %d out of range (len %d)", i, seq.Len())
		}
		return types.Nil, nil

	case gapl.BAppend:
		v := materialize(args[1])
		if w := args[0].Win(); w != nil {
			return types.Nil, w.Append(v, m.host.Now())
		}
		if s := args[0].Seq(); s != nil {
			s.Append(v)
			return types.Nil, nil
		}
		return types.Nil, fmt.Errorf("append() needs a window or sequence, got %s", args[0].Kind())

	case gapl.BWinSize:
		w := args[0].Win()
		if w == nil {
			return types.Nil, fmt.Errorf("winSize() needs a window, got %s", args[0].Kind())
		}
		w.ExpireAt(m.host.Now())
		return types.Int(int64(w.Len())), nil

	case gapl.BWinSum, gapl.BWinAvg, gapl.BWinMin, gapl.BWinMax,
		gapl.BWinStddev, gapl.BWinMedian:
		return m.winAggregate(id, args[0])

	case gapl.BRunSize:
		return types.Int(int64(len(m.run))), nil

	case gapl.BAppendRun:
		// Unreachable: the compiler lowers appendRun to OpAppendRun.
		return types.Nil, fmt.Errorf("appendRun() must be compiled to a dedicated instruction")

	case gapl.BDelete:
		switch {
		case args[0].Map() != nil:
			args[0].Map().Clear()
		case args[0].Win() != nil:
			args[0].Win().Clear()
		}
		// Scalars: advisory no-op (the Go GC owns reclamation).
		return types.Nil, nil

	case gapl.BCurrentTopic:
		return types.Str(m.curTopic), nil

	case gapl.BSend:
		vals := make([]types.Value, len(args))
		for i, a := range args {
			vals[i] = materialize(a)
		}
		return types.Nil, m.host.Send(vals)

	case gapl.BPublish:
		topic, ok := args[0].AsStr()
		if !ok {
			return types.Nil, fmt.Errorf("publish() needs a topic name first, got %s", args[0].Kind())
		}
		var vals []types.Value
		if len(args) == 2 {
			// Fast paths: republishing a whole event or sequence forwards
			// its attribute values without re-materialising. Committed
			// values are never mutated, so the new row may share them; a
			// sequence's items are shared, so its next write copies them.
			if ev := args[1].Event(); ev != nil {
				vals = ev.Tuple.Vals
			} else if seq := args[1].Seq(); seq != nil {
				vals = seq.Share()
			}
		}
		if vals == nil {
			vals = make([]types.Value, 0, len(args)-1)
			for _, a := range args[1:] {
				vals = append(vals, materialize(a))
			}
		}
		return types.Nil, m.host.Publish(topic, vals)

	case gapl.BTstampNow:
		return types.Stamp(m.host.Now()), nil

	case gapl.BTstampDiff:
		a, aok := args[0].NumAsInt()
		b, bok := args[1].NumAsInt()
		if !aok || !bok {
			return types.Nil, fmt.Errorf("tstampDiff() needs tstamp arguments")
		}
		return types.Int(a - b), nil

	case gapl.BHourInDay:
		ts, ok := args[0].AsStamp()
		if !ok {
			return types.Nil, fmt.Errorf("hourInDay() needs a tstamp, got %s", args[0].Kind())
		}
		return types.Int(int64(ts.HourInDay())), nil

	case gapl.BDayInWeek:
		ts, ok := args[0].AsStamp()
		if !ok {
			return types.Nil, fmt.Errorf("dayInWeek() needs a tstamp, got %s", args[0].Kind())
		}
		return types.Int(int64(ts.DayInWeek())), nil

	case gapl.BFloat:
		f, ok := args[0].NumAsReal()
		if !ok {
			return types.Nil, fmt.Errorf("float() needs a numeric argument, got %s", args[0].Kind())
		}
		return types.Real(f), nil

	case gapl.BInt:
		if b, ok := args[0].AsBool(); ok {
			if b {
				return types.Int(1), nil
			}
			return types.Int(0), nil
		}
		n, ok := args[0].NumAsInt()
		if !ok {
			return types.Nil, fmt.Errorf("int() needs a numeric argument, got %s", args[0].Kind())
		}
		return types.Int(n), nil

	case gapl.BPrint:
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.String()
		}
		m.host.Print(strings.Join(parts, " "))
		return types.Nil, nil

	case gapl.BAbs:
		switch args[0].Kind() {
		case types.KindInt:
			n, _ := args[0].AsInt()
			if n < 0 {
				n = -n
			}
			return types.Int(n), nil
		case types.KindReal:
			f, _ := args[0].AsReal()
			return types.Real(math.Abs(f)), nil
		}
		return types.Nil, fmt.Errorf("abs() needs int or real, got %s", args[0].Kind())

	case gapl.BMin2, gapl.BMax2:
		c, err := types.Compare(args[0], args[1])
		if err != nil {
			return types.Nil, err
		}
		if (id == gapl.BMin2) == (c <= 0) {
			return args[0], nil
		}
		return args[1], nil

	case gapl.BSqrt:
		f, ok := args[0].NumAsReal()
		if !ok {
			return types.Nil, fmt.Errorf("sqrt() needs a numeric argument, got %s", args[0].Kind())
		}
		return types.Real(math.Sqrt(f)), nil

	case gapl.BPow:
		a, aok := args[0].NumAsReal()
		b, bok := args[1].NumAsReal()
		if !aok || !bok {
			return types.Nil, fmt.Errorf("pow() needs numeric arguments")
		}
		return types.Real(math.Pow(a, b)), nil

	case gapl.BFrequent:
		return types.Nil, m.frequentStep(args[0], args[1], args[2])

	case gapl.BLsf:
		return lsf(args[0])
	}
	return types.Nil, fmt.Errorf("unimplemented builtin %d", id)
}

// winAggregate implements the windowed aggregate builtins winSum, winAvg,
// winMin, winMax, winStddev and winMedian. Time-constrained windows are
// expired first, so the aggregate covers exactly the live SECS/MSECS span
// (or the last ROWS values). winSum over an empty window is int 0 (the
// empty sum); every other aggregate over an empty window is a runtime
// error — guard with winSize().
func (m *VM) winAggregate(id gapl.BuiltinID, arg types.Value) (types.Value, error) {
	name := winAggName(id)
	w := arg.Win()
	if w == nil {
		return types.Nil, fmt.Errorf("%s() needs a window, got %s", name, arg.Kind())
	}
	w.ExpireAt(m.host.Now())
	n := w.Len()
	switch id {
	case gapl.BWinSum, gapl.BWinAvg:
		if n == 0 {
			if id == gapl.BWinAvg {
				return types.Nil, fmt.Errorf("winAvg() over an empty window (guard with winSize)")
			}
			return types.Int(0), nil
		}
		var sumI int64
		var sumR float64
		real := false
		for i := 0; i < n; i++ {
			el := w.At(i)
			switch el.Kind() {
			case types.KindInt:
				v, _ := el.AsInt()
				sumI += v
				sumR += float64(v)
			case types.KindReal:
				v, _ := el.AsReal()
				sumR += v
				real = true
			default:
				return types.Nil, fmt.Errorf("%s() window elements must be numeric, got %s", name, el.Kind())
			}
		}
		if id == gapl.BWinAvg {
			return types.Real(sumR / float64(n)), nil
		}
		if real {
			return types.Real(sumR), nil
		}
		return types.Int(sumI), nil
	case gapl.BWinStddev:
		if n == 0 {
			return types.Nil, fmt.Errorf("winStddev() over an empty window (guard with winSize)")
		}
		var sum float64
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			f, ok := w.At(i).NumAsReal()
			if !ok {
				return types.Nil, fmt.Errorf("%s() window elements must be numeric, got %s", name, w.At(i).Kind())
			}
			xs[i] = f
			sum += f
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		// Population standard deviation: a window is the whole population
		// the automaton observes, not a sample of one. One element -> 0.
		return types.Real(math.Sqrt(ss / float64(n))), nil

	case gapl.BWinMedian:
		if n == 0 {
			return types.Nil, fmt.Errorf("winMedian() over an empty window (guard with winSize)")
		}
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			f, ok := w.At(i).NumAsReal()
			if !ok {
				return types.Nil, fmt.Errorf("%s() window elements must be numeric, got %s", name, w.At(i).Kind())
			}
			xs[i] = f
		}
		sort.Float64s(xs)
		if n%2 == 1 {
			return types.Real(xs[n/2]), nil
		}
		// Even count: the mean of the two middle values.
		return types.Real((xs[n/2-1] + xs[n/2]) / 2), nil

	default: // winMin, winMax
		if n == 0 {
			return types.Nil, fmt.Errorf("%s() over an empty window (guard with winSize)", name)
		}
		best := w.At(0)
		for i := 1; i < n; i++ {
			el := w.At(i)
			c, err := types.Compare(el, best)
			if err != nil {
				return types.Nil, fmt.Errorf("%s(): %w", name, err)
			}
			if (id == gapl.BWinMin && c < 0) || (id == gapl.BWinMax && c > 0) {
				best = el
			}
		}
		return best, nil
	}
}

// winAggName resolves a windowed aggregate's source name for error
// reports without allocating on the aggregate hot path.
func winAggName(id gapl.BuiltinID) string {
	switch id {
	case gapl.BWinSum:
		return "winSum"
	case gapl.BWinAvg:
		return "winAvg"
	case gapl.BWinMin:
		return "winMin"
	case gapl.BWinStddev:
		return "winStddev"
	case gapl.BWinMedian:
		return "winMedian"
	}
	return "winMax"
}

// --- map / association operations ---

func (m *VM) lookup(target, id types.Value) (types.Value, error) {
	key := types.KeyString(id)
	if mp := target.Map(); mp != nil {
		v, ok := mp.Lookup(key)
		if !ok {
			return types.Nil, fmt.Errorf("lookup(): no entry for %q (guard with hasEntry)", key)
		}
		return v, nil
	}
	if as := target.Assoc(); as != nil {
		v, ok, err := m.host.AssocLookup(as.Table, key)
		if err != nil {
			return types.Nil, err
		}
		if !ok {
			return types.Nil, fmt.Errorf("lookup(): table %s has no row %q (guard with hasEntry)", as.Table, key)
		}
		return v, nil
	}
	return types.Nil, fmt.Errorf("lookup() needs a map or association, got %s", target.Kind())
}

func (m *VM) insert(target, id, v types.Value) error {
	key := types.KeyString(id)
	if mp := target.Map(); mp != nil {
		return mp.Insert(key, materialize(v))
	}
	if as := target.Assoc(); as != nil {
		return m.host.AssocInsert(as.Table, key, materialize(v))
	}
	return fmt.Errorf("insert() needs a map or association, got %s", target.Kind())
}

func (m *VM) hasEntry(target, id types.Value) (types.Value, error) {
	key := types.KeyString(id)
	if mp := target.Map(); mp != nil {
		return types.Bool(mp.Has(key)), nil
	}
	if as := target.Assoc(); as != nil {
		ok, err := m.host.AssocHas(as.Table, key)
		if err != nil {
			return types.Nil, err
		}
		return types.Bool(ok), nil
	}
	return types.Nil, fmt.Errorf("hasEntry() needs a map or association, got %s", target.Kind())
}

func (m *VM) remove(target, id types.Value) (types.Value, error) {
	key := types.KeyString(id)
	if mp := target.Map(); mp != nil {
		mp.Remove(key)
		return types.Nil, nil
	}
	if as := target.Assoc(); as != nil {
		if _, err := m.host.AssocRemove(as.Table, key); err != nil {
			return types.Nil, err
		}
		return types.Nil, nil
	}
	return types.Nil, fmt.Errorf("remove() needs a map or association, got %s", target.Kind())
}

func (m *VM) mapSize(target types.Value) (types.Value, error) {
	if mp := target.Map(); mp != nil {
		return types.Int(int64(mp.Size())), nil
	}
	if as := target.Assoc(); as != nil {
		n, err := m.host.AssocSize(as.Table)
		if err != nil {
			return types.Nil, err
		}
		return types.Int(int64(n)), nil
	}
	return types.Nil, fmt.Errorf("mapSize() needs a map or association, got %s", target.Kind())
}

// frequentStep is the built-in variant of the Misra-Gries "frequent"
// algorithm (§6.4): one update of summary map mp with item id, keeping at
// most k-1 counters.
func (m *VM) frequentStep(target, id, kArg types.Value) error {
	mp := target.Map()
	if mp == nil {
		return fmt.Errorf("frequent() needs a local map, got %s", target.Kind())
	}
	k, ok := kArg.NumAsInt()
	if !ok || k < 2 {
		return fmt.Errorf("frequent() needs k >= 2")
	}
	key := types.KeyString(id)
	if v, found := mp.Lookup(key); found {
		n, _ := v.NumAsInt()
		return mp.Insert(key, types.Int(n+1))
	}
	if mp.Size() < int(k-1) {
		return mp.Insert(key, types.Int(1))
	}
	// Decrement all counters; drop the ones that reach zero.
	for _, existing := range mp.Keys() {
		v, _ := mp.Lookup(existing)
		n, _ := v.NumAsInt()
		n--
		if n == 0 {
			mp.Remove(existing)
		} else {
			if err := mp.Insert(existing, types.Int(n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// lsf computes a least-squares linear fit over a window. Elements may be
// sequences (x = element 0, y = element 1) or plain numerics (x = index).
// It returns Sequence(slope, intercept).
func lsf(arg types.Value) (types.Value, error) {
	w := arg.Win()
	if w == nil {
		return types.Nil, fmt.Errorf("lsf() needs a window, got %s", arg.Kind())
	}
	n := w.Len()
	if n < 2 {
		return types.Nil, fmt.Errorf("lsf() needs at least 2 points, window has %d", n)
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		var x, y float64
		el := w.At(i)
		if seq := el.Seq(); seq != nil {
			if seq.Len() < 2 {
				return types.Nil, fmt.Errorf("lsf() window sequences need (x, y) elements")
			}
			xf, xok := seq.At(0).NumAsReal()
			yf, yok := seq.At(1).NumAsReal()
			if !xok || !yok {
				return types.Nil, fmt.Errorf("lsf() needs numeric (x, y) pairs")
			}
			x, y = xf, yf
		} else {
			yf, ok := el.NumAsReal()
			if !ok {
				return types.Nil, fmt.Errorf("lsf() window elements must be numeric or (x, y) sequences")
			}
			x, y = float64(i), yf
		}
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return types.Nil, fmt.Errorf("lsf(): degenerate x values")
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	return types.SeqV(types.NewSequence(types.Real(slope), types.Real(intercept))), nil
}
