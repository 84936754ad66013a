package workloads

import (
	"bytes"
	"testing"
)

func TestGWriteBufferPersistsThroughGPUfs(t *testing.T) {
	env := NewEnv(GPUfs, QuickConfig())
	f, err := env.Ctx.FS.Create("/pm/gwb", 1<<18, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := env.Ctx.Space.AllocHBM(1 << 18)
	want := bytes.Repeat([]byte{0x42}, 1<<18)
	env.Ctx.Space.WriteCPU(src, want)
	if err := GWriteBuffer(env, f, src, 0, 1<<18); err != nil {
		t.Fatal(err)
	}
	env.Ctx.Crash()
	got := make([]byte, 1<<18)
	env.Ctx.Space.Read(f.Mmap(), got)
	if !bytes.Equal(got, want) {
		t.Error("GPUfs-written data not durable after gfsync")
	}
}

func TestGWriteBufferRejectsOversizeFile(t *testing.T) {
	cfg := QuickConfig()
	env := NewEnv(GPUfs, cfg)
	env.Ctx.Params.GPUFSMaxFileSize = 1 << 10
	f, err := env.Ctx.FS.Create("/pm/gwb2", 1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := env.Ctx.Space.AllocHBM(1 << 16)
	if err := GWriteBuffer(env, f, src, 0, 1<<16); err == nil {
		t.Error("oversize file accepted by GPUfs")
	}
}

func TestGWriteBufferSerializesOnDaemon(t *testing.T) {
	env := NewEnv(GPUfs, QuickConfig())
	f, _ := env.Ctx.FS.Create("/pm/gwb3", 1<<20, 0)
	src := env.Ctx.Space.AllocHBM(1 << 20)
	before := env.Ctx.Timeline.Total()
	if err := GWriteBuffer(env, f, src, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	elapsed := env.Ctx.Timeline.Total() - before
	// 16 chunk RPCs at ≥18µs each, serialized: the daemon is the
	// bottleneck the paper blames for GPUfs's slowdowns (§6.1).
	if elapsed < 16*env.Ctx.Params.GPUFSCallOverhead {
		t.Errorf("GPUfs write of 1MB took only %v; RPC serialization missing", elapsed)
	}
}

type crashingWorkload struct {
	fakeWorkload
	recovered bool
}

func (c *crashingWorkload) Supports(mode Mode) bool { return mode == GPM }
func (c *crashingWorkload) RunUntilCrash(env *Env, abortAfterOps int64) error {
	env.Ctx.Timeline.Add("work", 100)
	return nil
}
func (c *crashingWorkload) Recover(env *Env) error {
	c.recovered = true
	env.AddRestore(10)
	return nil
}

func TestRunWithCrashLifecycle(t *testing.T) {
	w := &crashingWorkload{}
	r, err := RunWorkload(w, WithMode(GPM), WithConfig(QuickConfig()), WithCrashAt(5))
	if err != nil {
		t.Fatal(err)
	}
	if !w.recovered {
		t.Error("Recover never ran")
	}
	if r.Restore != 10 {
		t.Errorf("restore = %v", r.Restore)
	}
	if _, err := RunWorkload(&crashingWorkload{}, WithMode(CAPfs), WithConfig(QuickConfig()), WithCrashAt(5)); err == nil {
		t.Error("unsupported mode accepted")
	}
}
