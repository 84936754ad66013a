package dnn

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/gpm-sim/gpm/internal/gpu"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// macCost is the per fused-multiply-add cost on a GPU thread.
const macCost = 1 * sim.Nanosecond

func f32Bytes(vals []float32) []byte {
	buf := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	return buf
}

func f32sOf(buf []byte) []float32 {
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

const dnnTPB = 128

func gridFor(n int) (blocks, tpb int) {
	tpb = dnnTPB
	if n < tpb {
		tpb = n
	}
	return (n + tpb - 1) / tpb, tpb
}

// forward1: hid[b][j] = relu(W1[j]·x[batchRow b] + b1[j]).
func (d *DNN) forward1(env *workloads.Env, b0 int) {
	n := d.batch * d.hidden
	blocks, tpb := gridFor(n)
	env.Ctx.Launch("dnn-fwd1", blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		b, j := id/d.hidden, id%d.hidden
		row := t.LoadF32s(0, d.wBlock+uint64(j*d.inputs)*4, d.inputs)
		xv := t.LoadF32s(1, d.x+uint64((b0+b)*d.inputs)*4, d.inputs)
		acc := t.LoadF32(d.wBlock + uint64(d.b1Off()+j)*4)
		for i := range row {
			acc += row[i] * xv[i]
		}
		if acc < 0 {
			acc = 0
		}
		t.Compute(sim.Duration(d.inputs) * macCost)
		t.StoreF32(d.hid+uint64(id)*4, acc)
	})
}

// forward2: logits[b][c] = W2[c]·hid[b] + b2[c].
func (d *DNN) forward2(env *workloads.Env) {
	n := d.batch * d.classes
	blocks, tpb := gridFor(n)
	env.Ctx.Launch("dnn-fwd2", blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		b, c := id/d.classes, id%d.classes
		w := t.LoadF32s(0, d.wBlock+uint64(d.w2Off()+c*d.hidden)*4, d.hidden)
		h := t.LoadF32s(1, d.hid+uint64(b*d.hidden)*4, d.hidden)
		acc := t.LoadF32(d.wBlock + uint64(d.b2Off()+c)*4)
		for j := range w {
			acc += w[j] * h[j]
		}
		t.Compute(sim.Duration(d.hidden) * macCost)
		t.StoreF32(d.logits+uint64(id)*4, acc)
	})
}

// gradKernel: grad[b][c] = (softmax(logits[b])[c] - onehot(label))/batch.
func (d *DNN) gradKernel(env *workloads.Env, b0 int) {
	blocks, tpb := gridFor(d.batch)
	env.Ctx.Launch("dnn-grad", blocks, tpb, func(t *gpu.Thread) {
		b := t.GlobalID()
		if b >= d.batch {
			return
		}
		lg := t.LoadF32s(0, d.logits+uint64(b*d.classes)*4, d.classes)
		label := t.LoadU32(d.labels + uint64(b0+b)*4)
		maxv := lg[0]
		for _, v := range lg {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		exps := make([]float32, d.classes)
		for c, v := range lg {
			exps[c] = expf32(v - maxv)
			sum += exps[c]
		}
		out := make([]float32, d.classes)
		for c := range out {
			p := exps[c] / sum
			if uint32(c) == label {
				p -= 1
			}
			out[c] = p / float32(d.batch)
		}
		t.Compute(sim.Duration(4*d.classes) * macCost)
		t.StoreBytes(d.grad+uint64(b*d.classes)*4, f32Bytes(out))
	})
}

func expf32(x float32) float32 { return float32(math.Exp(float64(x))) }

// transpose: dst[j][i] = src[i][j] for an rows×cols source.
func (d *DNN) transpose(env *workloads.Env, name string, dst, src uint64, rows, cols int) {
	n := rows * cols
	blocks, tpb := gridFor(n)
	env.Ctx.Launch(name, blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		r, c := id/cols, id%cols
		t.StoreU32(dst+uint64(c*rows+r)*4, t.LoadU32(src+uint64(id)*4))
	})
}

// updateW2: W2[c][j] -= lr · gradT[c]·hidT[j]; b2[c] -= lr · Σ gradT[c].
func (d *DNN) updateW2(env *workloads.Env) {
	n := d.classes * d.hidden
	blocks, tpb := gridFor(n)
	env.Ctx.Launch("dnn-dw2", blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		c, j := id/d.hidden, id%d.hidden
		g := t.LoadF32s(0, d.gradT+uint64(c*d.batch)*4, d.batch)
		h := t.LoadF32s(1, d.hidT+uint64(j*d.batch)*4, d.batch)
		var dw float32
		for b := range g {
			dw += g[b] * h[b]
		}
		t.Compute(sim.Duration(d.batch) * macCost)
		addr := d.wBlock + uint64(d.w2Off()+id)*4
		t.StoreF32(addr, t.LoadF32(addr)-dnnLR*dw)
		if j == 0 {
			var db float32
			for b := range g {
				db += g[b]
			}
			baddr := d.wBlock + uint64(d.b2Off()+c)*4
			t.StoreF32(baddr, t.LoadF32(baddr)-dnnLR*db)
		}
	})
}

// dhidKernel: dhid[b][j] = 1[hid>0] · Σ_c W2[c][j]·grad[b][c].
func (d *DNN) dhidKernel(env *workloads.Env) {
	n := d.batch * d.hidden
	blocks, tpb := gridFor(n)
	env.Ctx.Launch("dnn-dhid", blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		b, j := id/d.hidden, id%d.hidden
		g := t.LoadF32s(0, d.grad+uint64(b*d.classes)*4, d.classes)
		var acc float32
		for c := 0; c < d.classes; c++ {
			acc += t.LoadF32(d.wBlock+uint64(d.w2Off()+c*d.hidden+j)*4) * g[c]
		}
		if t.LoadF32(d.hid+uint64(id)*4) <= 0 {
			acc = 0
		}
		t.Compute(sim.Duration(d.classes) * macCost)
		t.StoreF32(d.dhid+uint64(id)*4, acc)
	})
}

// updateW1: W1[j][i] -= lr · dhidT[j]·xT[i][b0:b0+B]; b1[j] -= lr·Σ dhidT[j].
func (d *DNN) updateW1(env *workloads.Env, b0 int) {
	n := d.hidden * d.inputs
	blocks, tpb := gridFor(n)
	env.Ctx.Launch("dnn-dw1", blocks, tpb, func(t *gpu.Thread) {
		id := t.GlobalID()
		if id >= n {
			return
		}
		j, i := id/d.inputs, id%d.inputs
		g := t.LoadF32s(0, d.dhidT+uint64(j*d.batch)*4, d.batch)
		xc := t.LoadF32s(1, d.xT+uint64(i*dnnDataset+b0)*4, d.batch)
		var dw float32
		for b := range g {
			dw += g[b] * xc[b]
		}
		t.Compute(sim.Duration(d.batch) * macCost)
		addr := d.wBlock + uint64(id)*4
		t.StoreF32(addr, t.LoadF32(addr)-dnnLR*dw)
		if i == 0 {
			var db float32
			for b := range g {
				db += g[b]
			}
			baddr := d.wBlock + uint64(d.b1Off()+j)*4
			t.StoreF32(baddr, t.LoadF32(baddr)-dnnLR*db)
		}
	})
}

// trainIteration runs one forward+backward pass over batch `it`.
func (d *DNN) trainIteration(env *workloads.Env, it int) {
	b0 := ((it - 1) * d.batch) % dnnDataset
	if b0+d.batch > dnnDataset {
		b0 = 0
	}
	d.forward1(env, b0)
	d.forward2(env)
	d.gradKernel(env, b0)
	d.transpose(env, "dnn-tr-grad", d.gradT, d.grad, d.batch, d.classes)
	d.transpose(env, "dnn-tr-hid", d.hidT, d.hid, d.batch, d.hidden)
	d.dhidKernel(env)
	d.transpose(env, "dnn-tr-dhid", d.dhidT, d.dhid, d.batch, d.hidden)
	d.updateW2(env)
	d.updateW1(env, b0)
}

func (d *DNN) checkpoint(env *workloads.Env) error {
	start := env.Ctx.Timeline.Total()
	defer func() { env.AddCheckpoint(env.Ctx.Timeline.Total() - start) }()
	d.ckpts++
	var err error
	if env.Mode.UsesGPM() {
		_, err = d.cp.CheckpointGroup(0)
	} else {
		err = workloads.PersistBuffer(env, d.cpFile, 0, d.wBlock, int64(d.wLen())*4)
	}
	if err != nil {
		return err
	}
	d.ckptWts = d.readWeights(env)
	return nil
}

func (d *DNN) readWeights(env *workloads.Env) []float32 {
	buf := make([]byte, d.wLen()*4)
	env.Ctx.Space.Read(d.wBlock, buf)
	return f32sOf(buf)
}

// Run implements workloads.Workload.
func (d *DNN) Run(env *workloads.Env) error {
	for it := d.resumeIter + 1; it <= d.iters; it++ {
		d.trainIteration(env, it)
		if it%d.ckptEach == 0 {
			if err := d.checkpoint(env); err != nil {
				return err
			}
		}
	}
	env.CountOps(int64(d.iters-d.resumeIter) * int64(d.batch))
	return nil
}

// Verify implements workloads.Workload: training must reduce the loss, and
// the durable checkpoint must hold the weights captured at the last
// checkpoint.
func (d *DNN) Verify(env *workloads.Env) error {
	final := d.readWeights(env)
	loss := d.hostLoss(final)
	if loss >= d.initLoss*0.97 {
		return fmt.Errorf("dnn: loss did not improve (%.4f -> %.4f)", d.initLoss, loss)
	}
	if d.ckpts == 0 {
		return fmt.Errorf("dnn: no checkpoints taken")
	}
	var durable []float32
	if env.Mode.UsesGPM() {
		sp := env.Ctx.Space
		scratch := sp.AllocHBM(int64(d.wLen()) * 4)
		cp2, err := env.Ctx.CPOpen("/pm/dnn.cp")
		if err != nil {
			return err
		}
		var off uint64
		for _, r := range d.regions() {
			if err := cp2.Register(scratch+off, r.n, 0); err != nil {
				return err
			}
			off += uint64(r.n)
		}
		if _, err := cp2.RestoreGroup(0); err != nil {
			return err
		}
		buf := make([]byte, d.wLen()*4)
		sp.Read(scratch, buf)
		durable = f32sOf(buf)
	} else {
		durable = f32sOf(env.Ctx.Space.SnapshotPersistent(d.cpFile.Mmap(), d.wLen()*4))
	}
	for i := range durable {
		if durable[i] != d.ckptWts[i] {
			return fmt.Errorf("dnn: durable weight[%d] = %v, want %v", i, durable[i], d.ckptWts[i])
		}
	}
	return nil
}

// RunUntilCrash implements workloads.Crasher.
func (d *DNN) RunUntilCrash(env *workloads.Env, abortAfterOps int64) error {
	if !env.Mode.UsesGPM() {
		return fmt.Errorf("dnn: crash study requires a GPM mode")
	}
	env.Ctx.Dev.SetAbortCheck(func(op int64) bool { return op >= abortAfterOps })
	err := d.Run(env)
	env.Ctx.Dev.SetAbortCheck(nil)
	if err == gpu.ErrCrashed {
		return nil
	}
	return err
}

// Recover implements workloads.Crasher: restore weights from the durable
// checkpoint (§5.3 recovery mode), restage the dataset, and resume
// training at the checkpointed iteration.
func (d *DNN) Recover(env *workloads.Env) error {
	restoreStart := env.Ctx.Timeline.Total()
	cp2, err := env.Ctx.CPOpen("/pm/dnn.cp")
	if err != nil {
		return err
	}
	for _, r := range d.regions() {
		if err := cp2.Register(r.addr, r.n, 0); err != nil {
			return err
		}
	}
	if cp2.Seq(0) > 0 {
		if _, err := cp2.RestoreGroup(0); err != nil {
			return err
		}
	} else {
		// Crash landed before the first checkpoint: restart training from
		// the initial weights (a durable input in the paper's setting,
		// kept host-side here).
		env.Ctx.Space.WriteCPU(d.wBlock, f32Bytes(d.initWts))
	}
	env.AddRestore(env.Ctx.Timeline.Total() - restoreStart)
	d.cp = cp2
	d.ckpts = int(cp2.Seq(0))
	d.resumeIter = int(cp2.Seq(0)) * d.ckptEach
	d.stageData(env, f32sOf(d.dataBytes))
	err = d.Run(env)
	d.resumeIter = 0
	return err
}
