package sim

import (
	"testing"
	"unsafe"
)

// The label texts below are the strings the emitters formatted before
// labels were typed; schedule digests hash them, so they must not move.
func TestLabelStringPins(t *testing.T) {
	fwd, bwd := StageAttnFwd.Label(), StageAttnBwd.Label()
	kv := fwd.With(SegRing, 12).With(SegRoundKV, 3, 4, 5)
	cases := []struct {
		l     Label
		want  string
		stage Stage
	}{
		{StageStart.Label(), "start", StageStart},
		{fwd.With(SegLocal, 7), "attn-fwd/local/seq7", StageAttnFwd},
		{fwd.With(SegDone), "attn-fwd/done", StageAttnFwd},
		{fwd.With(SegRing, 12).With(SegRoundComp, 0, 4), "attn-fwd/ring12/r0/comp@4", StageAttnFwd},
		{kv, "attn-fwd/ring12/r3/kv4->5", StageAttnFwd},
		{kv.With(SegTx), "attn-fwd/ring12/r3/kv4->5/tx", StageAttnFwd},
		{kv.With(SegDispSelf), "attn-fwd/ring12/r3/kv4->5/disp-self", StageAttnFwd},
		{kv.With(SegDisp, 1).With(SegRx), "attn-fwd/ring12/r3/kv4->5/disp1/rx", StageAttnFwd},
		{bwd.With(SegRing, 12).With(SegRoundKV, 3, 4, 5).With(SegXfer, 2).With(SegTx), "attn-bwd/ring12/r3/kv4->5/xfer2/tx", StageAttnBwd},
		{kv.With(SegComb, 3), "attn-fwd/ring12/r3/kv4->5/comb3", StageAttnFwd},
		{fwd.With(SegTECP).With(SegComp), "attn-fwd/tecp/comp", StageAttnFwd},
		{bwd.With(SegTECP).With(SegRoundKV, 1, 0, 1).With(SegRx), "attn-bwd/tecp/r1/kv0->1/rx", StageAttnBwd},
		{fwd.With(SegLLaMA).With(SegAllGather), "attn-fwd/llama/allgather", StageAttnFwd},
		{fwd.With(SegLLaMA).With(SegAllGather).With(SegNodeChannel, 1, 0).With(SegRx), "attn-fwd/llama/allgather/node1/ch0/rx", StageAttnFwd},
		{bwd.With(SegLLaMA).With(SegAllGather).With(SegRankNVS, 3), "attn-bwd/llama/allgather/rank3/nvs", StageAttnBwd},
		{fwd.With(SegLLaMA).With(SegCompAt, 2), "attn-fwd/llama/comp@2", StageAttnFwd},
		{fwd.With(SegHybrid).With(SegDPSeq, 9, 3), "attn-fwd/hybrid/dp-seq9@3", StageAttnFwd},
		{fwd.With(SegHybrid).With(SegCPSeq, 5).With(SegRoundKV, 2, 8, 9).With(SegTx), "attn-fwd/hybrid/cp-seq5/r2/kv8->9/tx", StageAttnFwd},
		{fwd.With(SegHybrid).With(SegWaveStart), "attn-fwd/hybrid/wave-start", StageAttnFwd},
		{bwd.With(SegHybrid).With(SegWave, 2), "attn-bwd/hybrid/wave2", StageAttnBwd},
		{fwd.With(SegPacking).With(SegA2AIn).With(SegTxAt, 3), "attn-fwd/packing/a2a-in/tx@3", StageAttnFwd},
		{fwd.With(SegPacking).With(SegA2AIn).With(SegDone), "attn-fwd/packing/a2a-in/done", StageAttnFwd},
		{bwd.With(SegPacking).With(SegA2AOut).With(SegNVSAt, 0), "attn-bwd/packing/a2a-out/nvs@0", StageAttnBwd},
		{fwd.With(SegPacking).With(SegCompDone), "attn-fwd/packing/comp-done", StageAttnFwd},
		{StageLinearFwd.Label().With(SegStart), "linear-fwd/start", StageLinearFwd},
		{StageLinearBwd.Label().With(SegComputeDone), "linear-bwd/compute-done", StageLinearBwd},
		{StageLinearFwd.Label().With(SegMicroBatch, 2, 7), "linear-fwd/mb2@7", StageLinearFwd},
		{StageLinearFwd.Label().With(SegDispatch).With(SegRxAt, 3), "linear-fwd/dispatch/rx@3", StageLinearFwd},
		{StageLinearBwd.Label().With(SegCombine).With(SegDone), "linear-bwd/combine/done", StageLinearBwd},
		{StageRemapNoop.Label(), "remap-noop", StageRemapNoop},
		{StageRemapToLinear.Label(), "remap-to-linear", StageRemapToLinear},
		{StageRemapToLinear.Label().With(SegElement, 12, 3, 4).With(SegTx), "remap-to-linear/12[3->4]/tx", StageRemapToLinear},
		{StageRemapToAttn.Label().With(SegElement, 0, 7, 2).With(SegRx), "remap-to-attn/0[7->2]/rx", StageRemapToAttn},
		{Named("kv").With(SegXfer, 0).With(SegTx), "kv/xfer0/tx", StageNone},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if c.l.Stage() != c.stage {
			t.Errorf("%s: Stage() = %v, want %v", c.want, c.l.Stage(), c.stage)
		}
	}
}

func TestLabelWithChecksArity(t *testing.T) {
	for name, f := range map[string]func(){
		"too few":  func() { StageAttnFwd.Label().With(SegRoundKV, 1, 2) },
		"too many": func() { StageAttnFwd.Label().With(SegDone, 1) },
		"integers full": func() {
			StageAttnFwd.Label().With(SegRing, 1).With(SegRoundKV, 1, 2, 3).With(SegXfer, 1).With(SegDisp, 1).With(SegComb, 1)
		},
		"segments full": func() {
			StageAttnFwd.Label().With(SegTx).With(SegTx).With(SegTx).With(SegTx).With(SegTx).With(SegTx)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: With did not panic", name)
				}
			}()
			f()
		}()
	}
}

// A typed label is stored in the task without allocating, and stays 48
// bytes.
func TestLabelStoresWithoutAllocating(t *testing.T) {
	if n := unsafe.Sizeof(Label{}); n != 48 {
		t.Errorf("Label is %d bytes, want 48", n)
	}
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	base := StageAttnBwd.Label().With(SegRing, 12)
	e.tasks = make([]*Task, 0, 200)
	allocs := testing.AllocsPerRun(100, func() {
		e.Compute(base.With(SegRoundKV, 3, 4, 5).With(SegXfer, 2).With(SegTx), 0, r, 1)
	})
	if allocs > 1 { // the Task itself
		t.Errorf("NewTask with a typed label allocated %v times, want 1", allocs)
	}
}

func TestResourceNameString(t *testing.T) {
	for n, want := range map[ResourceName]string{
		{ResCompute, 3}: "gpu3/compute",
		{ResNVSOut, 0}:  "gpu0/nvs-out",
		{ResNVSIn, 15}:  "gpu15/nvs-in",
		{ResNICTx, 5}:   "nic5/tx",
		{ResNICRx, 1}:   "nic1/rx",
	} {
		if got := n.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
