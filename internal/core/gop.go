package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	rtrace "runtime/trace"

	"mpeg2par/internal/bits"
	"mpeg2par/internal/decoder"
	"mpeg2par/internal/frame"
	"mpeg2par/internal/mpeg2"
	"mpeg2par/internal/obs"
)

// decodeGOPMode runs the coarse-grained decoder: the scan result feeds a
// task queue of whole GOPs; each worker decodes its GOP start to finish
// and ships pictures to the display process.
func decodeGOPMode(data []byte, m *StreamMap, opt Options, st *Stats) error {
	pool := frame.NewPool(m.Seq.Width, m.Seq.Height)
	if opt.Conceal {
		// Concealed pictures may ship partially synthesized pixels; scrub
		// recycled buffers so no stale content leaks across GOPs.
		pool.SetScrub(frame.ScrubOnGet)
	}
	disp := newDisplay(pool, opt.Sink, opt.Obs)

	// Queue the groups in packed order (LPT by byte size unless
	// overridden): big groups start first, small ones level the tail.
	tasks := make(chan int, len(m.GOPs))
	order := packOrder(gopCosts(m.GOPs), opt.Packing, opt.PackSeed)
	for g := range m.GOPs {
		if order != nil {
			g = order[g]
		}
		tasks <- g
	}
	close(tasks)

	var errs firstErr
	st.WorkerStats = make([]WorkerStats, opt.Workers)
	if opt.Profile {
		st.GOPCosts = make([]TaskCost, len(m.GOPs))
	}
	var workMu sync.Mutex

	wallStart := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < opt.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			obs.Do(opt.Mode.String(), wi, func() { gopWorkerLoop(data, m, pool, opt, wi, disp, tasks, &errs, st, &workMu) })
		}(wi)
	}
	wg.Wait()
	displayed, dispErr := disp.finish()
	st.Wall = time.Since(wallStart)

	if err := errs.get(); err != nil {
		return err
	}
	if dispErr != nil {
		return dispErr
	}
	st.Pictures = m.TotalPictures
	st.Displayed = displayed
	st.poolGauges(pool)
	if displayed != m.TotalPictures {
		return fmt.Errorf("core: displayed %d of %d pictures", displayed, m.TotalPictures)
	}
	return nil
}

// gopWorkerLoop is one coarse-grained worker's task loop (the body of
// decodeGOPMode's goroutines, hoisted so it runs under pprof labels).
func gopWorkerLoop(data []byte, m *StreamMap, pool *frame.Pool, opt Options, wi int, disp *displayProc, tasks <-chan int, errs *firstErr, st *Stats, workMu *sync.Mutex) {
	ws := &st.WorkerStats[wi]
	for {
		t0 := time.Now()
		g, ok := <-tasks
		wait := time.Since(t0)
		ws.Wait += wait
		opt.Obs.Record(obs.KindWait, wi, t0, wait, -1, -1, -1)
		if !ok {
			return
		}
		if errs.get() != nil {
			continue // drain remaining tasks after a failure
		}
		t1 := time.Now()
		reg := rtrace.StartRegion(context.Background(), "mpeg2par.gopTask")
		var picCosts []time.Duration
		if opt.Profile {
			picCosts = make([]time.Duration, 0, len(m.GOPs[g].Pictures))
		}
		work, concealed, err := decodeOneGOP(data, m, g, pool, opt, wi, disp, &picCosts)
		reg.End()
		cost := time.Since(t1)
		ws.Busy += cost
		ws.Tasks++
		opt.Obs.Record(obs.KindTask, wi, t1, cost, g, -1, -1)
		opt.Cost.Observe(int64(m.GOPs[g].End-m.GOPs[g].Offset), cost)
		if err != nil {
			errs.set(fmt.Errorf("core: GOP %d at byte %d: %w", g, m.GOPs[g].Offset, err))
			continue
		}
		workMu.Lock()
		st.Work.Add(work)
		st.Concealed += concealed
		if opt.Profile {
			st.GOPCosts[g] = TaskCost{Cost: cost, Work: work, Pictures: picCosts}
		}
		workMu.Unlock()
	}
}

// decodeOneGOP decodes GOP g completely (the unit of work of one task).
func decodeOneGOP(data []byte, m *StreamMap, g int, pool *frame.Pool, opt Options, wi int, disp *displayProc, picCosts *[]time.Duration) (decoder.WorkStats, int, error) {
	gop := &m.GOPs[g]
	seq := m.Seq // copy: workers must not share mutable header state
	pd := decoder.PictureDecoder{
		Seq:     &seq,
		Tracer:  opt.Tracer,
		Proc:    wi,
		Conceal: opt.Conceal,
		Alloc: func() *frame.Frame {
			f := pool.Get()
			f.Retain(1) // the display process's reference
			return f
		},
		OnRelease: func(f *frame.Frame) {
			if f.Release() {
				pool.Put(f)
			}
		},
	}
	r := bits.NewReader(data[:gop.End])
	r.SeekBit(int64(gop.Offset) * 8)

	pi := 0
	for {
		code, err := r.NextStartCode()
		if err != nil {
			break
		}
		r.Skip(32)
		switch {
		case code == mpeg2.PictureStartCode:
			if pi >= len(gop.Pictures) {
				return pd.Work, pd.Concealed, fmt.Errorf("picture at byte %d: more pictures than the %d scanned", int(r.BytePos())-4, len(gop.Pictures))
			}
			pi++
			var t0 time.Time
			if opt.Profile {
				t0 = time.Now()
			}
			out, err := pd.DecodePicture(r)
			if err != nil {
				return pd.Work, pd.Concealed, err
			}
			for _, f := range out {
				disp.push(f, gop.FirstDisplay+f.TemporalRef)
			}
			if opt.Profile {
				*picCosts = append(*picCosts, time.Since(t0))
			}
		case code == mpeg2.SequenceHeaderCode:
			if _, err := mpeg2.ParseSequenceHeader(r); err != nil {
				return pd.Work, pd.Concealed, err
			}
		case code == mpeg2.GroupStartCode:
			if _, err := mpeg2.ParseGOPHeader(r); err != nil {
				return pd.Work, pd.Concealed, err
			}
		default:
			// extension/user data: skip
		}
	}
	if pi != len(gop.Pictures) {
		return pd.Work, pd.Concealed, fmt.Errorf("decoded %d of %d scanned pictures", pi, len(gop.Pictures))
	}
	if f := pd.Flush(); f != nil {
		disp.push(f, gop.FirstDisplay+f.TemporalRef)
	}
	pd.Reset() // release reference retains
	return pd.Work, pd.Concealed, nil
}
