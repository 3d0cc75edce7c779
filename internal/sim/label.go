package sim

import (
	"strconv"
	"strings"
)

// Stage is the phase of a training step a task belongs to. It is the
// root of a typed Label, and the stage breakdowns switch on it.
type Stage uint8

// Stages. StageNone marks a free-form label made by Named.
const (
	StageNone Stage = iota
	StageStart
	StageAttnFwd
	StageAttnBwd
	StageLinearFwd
	StageLinearBwd
	StageRemapNoop
	StageRemapToLinear
	StageRemapToAttn
)

var stageNames = [...]string{
	StageNone:          "",
	StageStart:         "start",
	StageAttnFwd:       "attn-fwd",
	StageAttnBwd:       "attn-bwd",
	StageLinearFwd:     "linear-fwd",
	StageLinearBwd:     "linear-bwd",
	StageRemapNoop:     "remap-noop",
	StageRemapToLinear: "remap-to-linear",
	StageRemapToAttn:   "remap-to-attn",
}

// String returns the stage's label root, e.g. "attn-fwd".
func (s Stage) String() string { return stageNames[s] }

// Label returns the label that is just the stage, e.g. "start".
func (s Stage) Label() Label { return Label{stage: s} }

// Seg is one '/'-separated segment of a label: a constant template whose
// %d verbs take the integers passed to Label.With, in order. Each layer
// that emits tasks extends its caller's label by its own segments.
type Seg uint8

// Segments, by the layer that appends them.
const (
	segNone Seg = iota

	// Methods (internal/baselines).
	SegTECP    // tecp
	SegLLaMA   // llama
	SegHybrid  // hybrid
	SegPacking // packing

	// Parts of an attention or linear stage.
	SegDone        // done
	SegLocal       // local/seq<seq>
	SegRing        // ring<seq>
	SegCPSeq       // cp-seq<seq>
	SegDPSeq       // dp-seq<seq>@<rank>
	SegComp        // comp
	SegCompAt      // comp@<rank>
	SegCompDone    // comp-done
	SegWaveStart   // wave-start
	SegWave        // wave<wave>
	SegStart       // start
	SegComputeDone // compute-done
	SegMicroBatch  // mb<i>@<rank>
	SegAllGather   // allgather
	SegA2AIn       // a2a-in
	SegA2AOut      // a2a-out
	SegDispatch    // dispatch
	SegCombine     // combine

	// Ring rounds (attention.Ring).
	SegRoundKV   // r<round>/kv<src>-><dst>
	SegRoundComp // r<round>/comp@<rank>

	// Collective elements (internal/collective).
	SegNodeChannel // node<node>/ch<channel>
	SegRankNVS     // rank<rank>/nvs
	SegTxAt        // tx@<rank>
	SegRxAt        // rx@<rank>
	SegNVSAt       // nvs@<rank>
	SegElement     // <i>[<src>-><dst>]

	// Routing hops (internal/routing).
	SegDispSelf // disp-self
	SegDisp     // disp<i>
	SegXfer     // xfer<i>
	SegComb     // comb<i>

	// Transfer sides (cluster.Fabric).
	SegTx // tx
	SegRx // rx
)

var segTemplates = [...]string{
	SegTECP:        "tecp",
	SegLLaMA:       "llama",
	SegHybrid:      "hybrid",
	SegPacking:     "packing",
	SegDone:        "done",
	SegLocal:       "local/seq%d",
	SegRing:        "ring%d",
	SegCPSeq:       "cp-seq%d",
	SegDPSeq:       "dp-seq%d@%d",
	SegComp:        "comp",
	SegCompAt:      "comp@%d",
	SegCompDone:    "comp-done",
	SegWaveStart:   "wave-start",
	SegWave:        "wave%d",
	SegStart:       "start",
	SegComputeDone: "compute-done",
	SegMicroBatch:  "mb%d@%d",
	SegAllGather:   "allgather",
	SegA2AIn:       "a2a-in",
	SegA2AOut:      "a2a-out",
	SegDispatch:    "dispatch",
	SegCombine:     "combine",
	SegRoundKV:     "r%d/kv%d->%d",
	SegRoundComp:   "r%d/comp@%d",
	SegNodeChannel: "node%d/ch%d",
	SegRankNVS:     "rank%d/nvs",
	SegTxAt:        "tx@%d",
	SegRxAt:        "rx@%d",
	SegNVSAt:       "nvs@%d",
	SegElement:     "%d[%d->%d]",
	SegDispSelf:    "disp-self",
	SegDisp:        "disp%d",
	SegXfer:        "xfer%d",
	SegComb:        "comb%d",
	SegTx:          "tx",
	SegRx:          "rx",
}

// segArity is the number of %d verbs in each template.
var segArity = func() (n [len(segTemplates)]uint8) {
	for i, t := range segTemplates {
		n[i] = uint8(strings.Count(t, "%d"))
	}
	return n
}()

// The deepest labels, routed ring transfers such as
// "attn-bwd/ring12/r3/kv4->5/xfer2/tx", take four segments and five
// integers; the slots leave room for one more of each while a Label
// stays 48 bytes.
const maxSegs, maxArgs = 5, 6

// Label names a task: a stage, or free text from Named, followed by up
// to five segments and their integers. Storing one allocates nothing; it
// becomes text only through String, which renders exactly the path the
// segments spell out, e.g. "attn-bwd/ring12/r3/kv4->5/xfer2/tx".
type Label struct {
	text  string
	stage Stage
	nseg  uint8
	narg  uint8
	segs  [maxSegs]Seg
	args  [maxArgs]int32
}

// Named returns a free-form label whose root is text (StageNone).
func Named(text string) Label { return Label{text: text} }

// Stage returns the label's stage.
func (l Label) Stage() Stage { return l.stage }

// With returns l extended by one segment with its integers. It panics if
// the count of integers does not match the segment's template or the
// label is full.
func (l Label) With(seg Seg, args ...int) Label {
	if seg == segNone || int(seg) >= len(segTemplates) || len(args) != int(segArity[seg]) {
		panic("sim: label segment with the wrong number of integers")
	}
	if int(l.nseg) == maxSegs || int(l.narg)+len(args) > maxArgs {
		panic("sim: label has no room for another segment")
	}
	l.segs[l.nseg] = seg
	l.nseg++
	for _, a := range args {
		l.args[l.narg] = int32(a)
		l.narg++
	}
	return l
}

// String renders the label as '/'-separated text.
func (l Label) String() string {
	b := make([]byte, 0, 48)
	if l.stage == StageNone {
		b = append(b, l.text...)
	} else {
		b = append(b, stageNames[l.stage]...)
	}
	args := l.args[:l.narg]
	for _, seg := range l.segs[:l.nseg] {
		b = append(b, '/')
		t := segTemplates[seg]
		for i := 0; i < len(t); i++ {
			if t[i] == '%' && i+1 < len(t) && t[i+1] == 'd' {
				b = strconv.AppendInt(b, int64(args[0]), 10)
				args = args[1:]
				i++
				continue
			}
			b = append(b, t[i])
		}
	}
	return string(b)
}

// ResourceClass is the kind of executor a resource models.
type ResourceClass uint8

// Resource classes, one per cluster.Fabric resource slice.
const (
	ResCompute ResourceClass = iota // gpu<i>/compute
	ResNVSOut                       // gpu<i>/nvs-out
	ResNVSIn                        // gpu<i>/nvs-in
	ResNICTx                        // nic<i>/tx
	ResNICRx                        // nic<i>/rx
)

// ResourceName names a resource by class and the index of its GPU or NIC.
type ResourceName struct {
	Class ResourceClass
	Index int
}

var resourceClassNames = [...][2]string{
	ResCompute: {"gpu", "compute"},
	ResNVSOut:  {"gpu", "nvs-out"},
	ResNVSIn:   {"gpu", "nvs-in"},
	ResNICTx:   {"nic", "tx"},
	ResNICRx:   {"nic", "rx"},
}

// String renders the name, e.g. "gpu3/compute" or "nic5/tx".
func (n ResourceName) String() string {
	c := resourceClassNames[n.Class]
	return c[0] + strconv.Itoa(n.Index) + "/" + c[1]
}
