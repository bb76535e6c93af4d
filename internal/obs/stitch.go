package obs

import "sort"

// Span-tree stitching: the collector side of cluster-wide tracing.
// Every traced event names its (TraceID, SpanID, ParentID); stitching
// groups events — from one ring or from many sites' rings merged —
// into one tree per trace, children under parents. Rings are bounded,
// so a parent may have been evicted (or a site unreachable): such
// spans are kept as orphans of their trace rather than dropped, and
// stitching never fails — a partial tree is still evidence.

// A Span is one node of a stitched trace tree: the aggregation of
// every event that carried its SpanID (an operation's op_start/op_end
// pair, or a single rpc/handle record).
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	// Site is the site whose ring recorded the span — for handle spans,
	// the remote site serving the request.
	Site   int    `json:"site"`
	Op     string `json:"op,omitempty"`
	Kind   string `json:"kind"`
	Block  int64  `json:"block"`
	Detail string `json:"detail,omitempty"`
	// StartNs/EndNs are the earliest and latest event timestamps of the
	// span, in the originating process's clock domain.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Orphaned marks a span whose parent was not found in the stitched
	// events (ring wrap evicted it, or its site was not collected).
	Orphaned bool    `json:"orphaned,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// A TraceTree is the stitched view of one trace: ideally a single tree
// under Root; Orphans holds the subtrees whose ancestry was lost.
type TraceTree struct {
	TraceID uint64  `json:"trace_id"`
	Root    *Span   `json:"root,omitempty"`
	Orphans []*Span `json:"orphans,omitempty"`
	// Sites lists every site contributing at least one span, sorted —
	// for a healthy cross-site write this covers all participants.
	Sites []int `json:"sites"`
	// Spans counts the nodes across Root and Orphans.
	Spans int `json:"spans"`
}

// Complete reports whether the trace stitched into a single rooted
// tree with no ancestry lost.
func (t *TraceTree) Complete() bool { return t.Root != nil && len(t.Orphans) == 0 }

// Stitch builds one TraceTree per TraceID present in events. Events
// without span identity (tracing off, or record-only kinds like
// w_transition) are ignored. Pass the concatenation of several sites'
// rings to stitch a cluster-wide view; ordering between slices does
// not matter. Trees are sorted by their earliest timestamp (then
// TraceID), children by start time (then SpanID), so the output is
// deterministic for a given event multiset.
func Stitch(events []Event) []*TraceTree {
	spans := make(map[uint64]*Span)
	order := make([]uint64, 0, len(events))
	for _, e := range events {
		if e.SpanID == 0 || e.TraceID == 0 {
			continue
		}
		sp, ok := spans[e.SpanID]
		if !ok {
			sp = &Span{
				TraceID: e.TraceID, SpanID: e.SpanID, ParentID: e.ParentID,
				Scheme: e.Scheme, Site: e.Site, Op: e.Op, Kind: spanKind(e.Kind),
				Block: e.Block, Detail: e.Detail, StartNs: e.At, EndNs: e.At,
			}
			spans[e.SpanID] = sp
			order = append(order, e.SpanID)
			continue
		}
		if e.At < sp.StartNs {
			sp.StartNs = e.At
		}
		if e.At > sp.EndNs {
			sp.EndNs = e.At
		}
		// Later events carry the richer detail (op_end records the
		// outcome); keep the last non-empty one.
		if e.Detail != "" {
			sp.Detail = e.Detail
		}
	}

	trees := make(map[uint64]*TraceTree)
	var treeOrder []uint64
	tree := func(id uint64) *TraceTree {
		t, ok := trees[id]
		if !ok {
			t = &TraceTree{TraceID: id}
			trees[id] = t
			treeOrder = append(treeOrder, id)
		}
		return t
	}
	for _, id := range order {
		sp := spans[id]
		t := tree(sp.TraceID)
		t.Spans++
		switch parent, ok := spans[sp.ParentID]; {
		case sp.ParentID == 0:
			// A root span. The first one becomes Root (for a well-formed
			// trace its SpanID equals the TraceID); duplicates — possible
			// only if two roots claimed one trace ID — degrade to orphans.
			if t.Root == nil {
				t.Root = sp
			} else {
				t.Orphans = append(t.Orphans, sp)
			}
		case ok:
			parent.Children = append(parent.Children, sp)
		default:
			// Parent evicted or its site not collected: partial tree.
			sp.Orphaned = true
			t.Orphans = append(t.Orphans, sp)
		}
	}

	out := make([]*TraceTree, 0, len(treeOrder))
	for _, id := range treeOrder {
		t := trees[id]
		siteSet := make(map[int]bool)
		var walk func(sp *Span)
		walk = func(sp *Span) {
			siteSet[sp.Site] = true
			sort.Slice(sp.Children, func(i, j int) bool {
				a, b := sp.Children[i], sp.Children[j]
				if a.StartNs != b.StartNs {
					return a.StartNs < b.StartNs
				}
				return a.SpanID < b.SpanID
			})
			for _, c := range sp.Children {
				walk(c)
			}
		}
		if t.Root != nil {
			walk(t.Root)
		}
		sort.Slice(t.Orphans, func(i, j int) bool {
			a, b := t.Orphans[i], t.Orphans[j]
			if a.StartNs != b.StartNs {
				return a.StartNs < b.StartNs
			}
			return a.SpanID < b.SpanID
		})
		for _, o := range t.Orphans {
			walk(o)
		}
		t.Sites = make([]int, 0, len(siteSet))
		for s := range siteSet {
			t.Sites = append(t.Sites, s)
		}
		sort.Ints(t.Sites)
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := treeStart(out[i]), treeStart(out[j])
		if a != b {
			return a < b
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// spanKind maps an event kind to its span's kind: the op_start/op_end
// pair collapses into one "op" span; rpc and handle map to themselves.
func spanKind(kind string) string {
	switch kind {
	case EvOpStart, EvOpEnd:
		return "op"
	default:
		return kind
	}
}

func treeStart(t *TraceTree) int64 {
	if t.Root != nil {
		return t.Root.StartNs
	}
	if len(t.Orphans) > 0 {
		return t.Orphans[0].StartNs
	}
	return 0
}

// TraceTrees stitches the observer's own ring (every site of an
// in-process cluster shares it, so this already is the cluster-wide
// view). Nil observer or tracing off yields nil.
func (o *Observer) TraceTrees() []*TraceTree {
	if o == nil || o.tracer == nil {
		return nil
	}
	return Stitch(o.tracer.Events())
}
