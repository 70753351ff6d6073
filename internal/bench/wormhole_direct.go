package bench

import "github.com/repro/wormhole/internal/core"

// whDirect exposes a Wormhole with non-default options plus its Stats to
// the ablation experiments, bypassing the name registry.
type whDirect struct{ t *core.Wormhole }

func NewWormholeLeafCap(leafCap int) *whDirect {
	o := core.DefaultOptions()
	o.LeafCap = leafCap
	return &whDirect{t: core.New(o)}
}

// NewWormholeShortAnchors builds a Wormhole with the anchor-minimizing
// split-point policy (the paper's future-work optimization).
func NewWormholeShortAnchors() *whDirect {
	o := core.DefaultOptions()
	o.ShortAnchors = true
	return &whDirect{t: core.New(o)}
}

func (ix *whDirect) Get(k []byte) ([]byte, bool) { return ix.t.Get(k) }
func (ix *whDirect) Set(k, v []byte)             { ix.t.Set(k, v) }
func (ix *whDirect) Del(k []byte) bool           { return ix.t.Del(k) }
func (ix *whDirect) Count() int64                { return ix.t.Count() }
func (ix *whDirect) Footprint() int64            { return ix.t.Footprint() }
func (ix *whDirect) Stats() core.Stats           { return ix.t.Stats() }
