package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file implements the float64 inference path. InferBatchArena walks
// the network once per *batch*, with every layer processing all B images
// in one kernel call; every classification — a lone image is a batch of
// one — runs through it. Winograd-eligible convolutions (3×3/s1/p1, dims
// divisible by 4) take the F(4×4,3×3) transform path
// (tensor.WinogradConv3x3); the rest lower the whole batch with
// tensor.Im2ColBatch (or generate it implicitly, tensor.ConvGemmIm2Col)
// and run a single [OutC, C*KH*KW] × [C*KH*KW, B*OH*OW] blocked GEMM;
// Dense layers become one [B,In] × [In,Out] matmul; element-wise, pooling
// and norm layers stream the batch buffer in one branchless pass. The
// batched activation layout is image-major: one backing tensor [B, elems]
// whose row b is image b's activation in [C,H,W] row-major order.
//
// Floating-point contract: an image's softmax row is bit-identical at
// every batch size and batch position (TestInferBatchArenaBatchOfOne): each
// kernel computes an image's outputs with the same accumulation chain
// whatever else shares the call. Against the training-time Network.Infer,
// predictions (argmax) are identical and probabilities agree within 1e-9
// (TestInferBatchArenaMatchesInfer): the Winograd convolution
// (transform-domain sums, ~1e-13 relative agreement, locked by
// TestWinogradConvMatchesIm2Col) and the Dense matmul (unrolled dot +
// bias-after instead of bias-first) reassociate the arithmetic.
//
// The path never mutates network state and is safe for concurrent use on a
// shared *Network; the arena (and the batchState built on it) is
// single-goroutine, so each worker owns its own.

// batchForwarder is implemented by layers with a fused batch kernel. src is
// the image-major batch backing ([bsz, prod(inShape)]); the method returns
// the output backing and the new per-image shape. Implementations must be
// read-only with temporaries drawn from st.
type batchForwarder interface {
	forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int)
}

// batchState is the per-call scratch of one InferBatchArena invocation: the
// arena plus reusable per-image view headers into the current backing.
type batchState struct {
	a     *tensor.Arena
	views []*tensor.T
}

// imageViews refreshes the reusable headers so that views[b] aliases image b
// of src under the given per-image shape. The returned slice is valid until
// the next call.
func (st *batchState) imageViews(src *tensor.T, shape []int, bsz int) []*tensor.T {
	n := prodShape(shape)
	for b := 0; b < bsz; b++ {
		v := st.views[b]
		v.Shape = append(v.Shape[:0], shape...)
		v.Data = src.Data[b*n : (b+1)*n]
	}
	return st.views[:bsz]
}

// InferBatchArena classifies a minibatch with the fused per-layer kernels
// and returns one softmax probability tensor per input, index-aligned with
// xs. All inputs must share one shape. The returned tensors are owned by
// the arena: copy anything kept before a.Reset(). The arena is required.
func (n *Network) InferBatchArena(xs []*tensor.T, a *tensor.Arena) []*tensor.T {
	if a == nil {
		panic("nn: InferBatchArena needs an arena")
	}
	bsz := len(xs)
	out := make([]*tensor.T, bsz)
	if bsz == 0 {
		return out
	}
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("nn: InferBatchArena: mixed input shapes %v vs %v", x.Shape, xs[0].Shape))
		}
	}

	st := &batchState{a: a, views: make([]*tensor.T, bsz)}
	for b := range st.views {
		st.views[b] = new(tensor.T)
	}
	shape := append([]int(nil), xs[0].Shape...)
	elems := prodShape(shape)
	cur := a.NewRaw(bsz, elems)
	for b, x := range xs {
		copy(cur.Data[b*elems:(b+1)*elems], x.Data)
	}

	for i, l := range n.Layers {
		if bf, ok := l.(batchForwarder); ok {
			cur, shape = bf.forwardBatchArena(cur, shape, bsz, st)
		} else {
			cur, shape = forwardBatchFallback(l, cur, shape, bsz, st)
		}
		if n.ActivationHook != nil {
			for _, v := range st.imageViews(cur, shape, bsz) {
				n.ActivationHook(i, v)
			}
		}
	}

	for b, v := range st.imageViews(cur, shape, bsz) {
		out[b] = softmaxInto(a.NewRaw(v.Shape...), v)
	}
	return out
}

// softmaxInto writes softmax(logits) into out (same algorithm as Softmax).
func softmaxInto(out, logits *tensor.T) *tensor.T {
	_, maxV := logits.MaxIndex()
	sum := 0.0
	for i, v := range logits.Data {
		e := math.Exp(v - maxV)
		out.Data[i] = e
		sum += e
	}
	if sum == 0 {
		// Degenerate logits (all -Inf); fall back to uniform.
		u := 1.0 / float64(out.Len())
		out.Fill(u)
		return out
	}
	inv := 1.0 / sum
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out
}

// forwardBatchFallback runs a layer without a fused kernel image by image
// through its inference-mode Forward and repacks the outputs contiguously.
// It keeps InferBatchArena correct for layer types added outside this file.
func forwardBatchFallback(l Layer, src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	views := st.imageViews(src, inShape, bsz)
	y0 := l.Forward(views[0], false)
	outShape := append([]int(nil), y0.Shape...)
	on := y0.Len()
	dst := st.a.NewRaw(bsz, on)
	copy(dst.Data[0:on], y0.Data)
	for b := 1; b < bsz; b++ {
		yb := l.Forward(views[b], false)
		copy(dst.Data[b*on:(b+1)*on], yb.Data)
	}
	return dst, outShape
}

// forwardBatchArena implements batchForwarder for Conv2D. Geometry
// permitting (3×3, stride 1, pad 1, spatial dims divisible by 4 — every
// conv in the CIFAR topologies), the whole batch takes the Winograd
// F(4×4,3×3) fast path, which does a quarter of the multiplies of the
// im2col lowering; on a scalar target that algorithmic cut is the only way
// past the one-multiply-accumulate-per-cycle ceiling the GEMM already
// sits at. Other geometries take the batched im2col route: one lowering,
// one blocked GEMM for all images, then a fused bias add + transpose from
// the GEMM's channel-major [OutC, B, OH*OW] layout back to image-major.
func (c *Conv2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	g := c.geometry(inShape)
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
	ckk := c.InC * c.KH * c.KW

	if tensor.WinogradEligible(g) {
		dst := st.a.NewRaw(bsz, c.OutC*ohw)
		if c.winoU != nil && tensor.PrepackEnabled() {
			// Compile-time filter transform (Network.Prepack); input and
			// output transforms are identical, so results match the
			// transform-per-call path bit for bit. Verification below is
			// unaffected: VerifyWinogradConv works from image + weights.
			tensor.WinogradConv3x3Pre(dst, src, bsz, c.OutC, c.winoU, c.bias.Value.Data, g, st.a)
		} else {
			tensor.WinogradConv3x3(dst, src, bsz, c.OutC, c.weight.Value, c.bias.Value.Data, g, st.a)
		}
		if s := st.a.Abft(); s != nil {
			s.Record(tensor.VerifyWinogradConv(dst, src, bsz, c.OutC, c.weight.Value, c.bias.Value.Data, g))
		}
		return dst, []int{c.OutC, oh, ow}
	}

	cm := st.a.NewRaw(c.OutC, bsz*ohw)
	if tensor.PrepackEnabled() && st.a.Abft() == nil && bsz*ohw >= tensor.ImplicitConvMinN {
		// Implicit GEMM: the [ckk, B*OH*OW] column matrix is generated
		// panel by panel inside the GEMM instead of being materialized —
		// bit-identical to the explicit lowering below. Verified mode
		// keeps the explicit path: the column-checksum verifier needs the
		// materialized B operand.
		tensor.ConvGemmIm2Col(cm, c.weight.Value, src.Data[:bsz*c.InC*g.InH*g.InW], bsz, g)
	} else {
		cols := st.a.NewRaw(ckk, bsz*ohw)
		tensor.Im2ColBatch(cols, st.imageViews(src, inShape, bsz), g)
		tensor.GemmInto(cm, c.weight.Value, cols)
		if s := st.a.Abft(); s != nil {
			s.Record(tensor.VerifyGemm(cm, c.weight.Value, cols))
		}
	}

	dst := st.a.NewRaw(bsz, c.OutC*ohw)
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.bias.Value.Data[oc]
		crow := cm.Data[oc*bsz*ohw : (oc+1)*bsz*ohw]
		for b := 0; b < bsz; b++ {
			drow := dst.Data[b*c.OutC*ohw+oc*ohw : b*c.OutC*ohw+(oc+1)*ohw]
			srow := crow[b*ohw : (b+1)*ohw]
			for i, v := range srow {
				drow[i] = v + bias
			}
		}
	}
	return dst, []int{c.OutC, oh, ow}
}

// forwardBatchArena implements batchForwarder for Dense: the batch is
// already a [B, In] row-major matrix, so the whole layer is one
// C = X × Wᵀ matmul plus a bias row broadcast.
func (d *Dense) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	if prodShape(inShape) != d.In {
		panic(fmt.Sprintf("nn: %s: batched input of %d elements, want %d", d.Name(), prodShape(inShape), d.In))
	}
	x := src.Reshape(bsz, d.In)
	dst := st.a.NewRaw(bsz, d.Out)
	tensor.MatMulTransBInto(dst, x, d.weight.Value)
	if s := st.a.Abft(); s != nil {
		s.Record(tensor.VerifyMatMulTransB(dst, x, d.weight.Value))
	}
	bias := d.bias.Value.Data
	for b := 0; b < bsz; b++ {
		row := dst.Data[b*d.Out : (b+1)*d.Out]
		for o, bv := range bias {
			row[o] += bv
		}
	}
	return dst, []int{d.Out}
}

// forwardBatchArena implements batchForwarder for ReLU: one branchless
// pass over the whole batch buffer. max(v, 0) produces the same value as
// the per-image branch for every real input (a rectifier's compare on
// roughly sign-random conv outputs mispredicts about half the time, which
// triples the cost of this trivial kernel).
func (r *ReLU) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	dst := st.a.NewRaw(bsz, prodShape(inShape))
	dd := dst.Data
	for i, v := range src.Data {
		dd[i] = max(v, 0)
	}
	return dst, inShape
}

// forwardBatchArena implements batchForwarder for LeakyReLU. For the usual
// 0 ≤ α ≤ 1 the rectifier is exactly max(v, α·v) — branchless; other
// slopes keep the literal comparison.
func (l *LeakyReLU) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	dst := st.a.NewRaw(bsz, prodShape(inShape))
	dd := dst.Data
	if a := l.Alpha; a >= 0 && a <= 1 {
		for i, v := range src.Data {
			dd[i] = max(v, a*v)
		}
		return dst, inShape
	}
	for i, v := range src.Data {
		if v > 0 {
			dd[i] = v
		} else {
			dd[i] = l.Alpha * v
		}
	}
	return dst, inShape
}

// forwardBatchArena implements batchForwarder for Flatten: a pure shape
// change — the image-major backing is already flat per image.
func (f *Flatten) forwardBatchArena(src *tensor.T, inShape []int, bsz int, _ *batchState) (*tensor.T, []int) {
	return src, []int{prodShape(inShape)}
}

// forwardBatchArena implements batchForwarder for Dropout (inference copy).
func (d *Dropout) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	dst := st.a.NewRaw(bsz, prodShape(inShape))
	copy(dst.Data, src.Data)
	return dst, inShape
}

// forwardBatchArena implements batchForwarder for MaxPool2D: a branchless
// 2×2 kernel for the ubiquitous K=2 case (the data-dependent compare of
// the general kernel mispredicts constantly on conv activations), the
// per-image kernel otherwise, applied to each contiguous image slice.
func (p *MaxPool2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	ch, h, w := inShape[0], inShape[1], inShape[2]
	oh, ow := h/p.K, w/p.K
	in, on := ch*h*w, ch*oh*ow
	dst := st.a.NewRaw(bsz, on)
	for b := 0; b < bsz; b++ {
		if p.K == 2 {
			maxPool2Into(dst.Data[b*on:(b+1)*on], src.Data[b*in:(b+1)*in], ch, h, w)
		} else {
			maxPoolInto(dst.Data[b*on:(b+1)*on], src.Data[b*in:(b+1)*in], ch, h, w, p.K)
		}
	}
	return dst, []int{ch, oh, ow}
}

// maxPool2Into is the branchless 2×2 specialization of maxPoolInto: each
// output is max of a 2×2 window, computed with the float max builtin
// (compare-free on amd64). Values match maxPoolInto exactly for every
// real input; only the sign of a zero can differ when a window ties
// between -0 and +0.
func maxPool2Into(dst, src []float64, ch, h, w int) {
	oh, ow := h/2, w/2
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			r0 := src[c*h*w+(2*oy)*w:][:w]
			r1 := src[c*h*w+(2*oy+1)*w:][:w]
			drow := dst[c*oh*ow+oy*ow:][:ow]
			for ox := 0; ox < ow; ox++ {
				x := 2 * ox
				drow[ox] = max(max(r0[x], r0[x+1]), max(r1[x], r1[x+1]))
			}
		}
	}
}

// maxPoolInto writes the K×K max-pool of one [ch,h,w] image into dst.
func maxPoolInto(dst, src []float64, ch, h, w, k int) {
	oh, ow := h/k, w/k
	for c := 0; c < ch; c++ {
		chanOff := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < k; ky++ {
					rowOff := chanOff + (oy*k+ky)*w + ox*k
					for kx := 0; kx < k; kx++ {
						if v := src[rowOff+kx]; v > best {
							best = v
						}
					}
				}
				dst[c*oh*ow+oy*ow+ox] = best
			}
		}
	}
}

// forwardBatchArena implements batchForwarder for AvgPool2D (global average
// per channel).
func (p *AvgPool2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	ch, hw := inShape[0], inShape[1]*inShape[2]
	in := ch * hw
	dst := st.a.NewRaw(bsz, ch)
	for b := 0; b < bsz; b++ {
		sd := src.Data[b*in : (b+1)*in]
		dd := dst.Data[b*ch : (b+1)*ch]
		for c := 0; c < ch; c++ {
			s := 0.0
			for _, v := range sd[c*hw : (c+1)*hw] {
				s += v
			}
			dd[c] = s / float64(hw)
		}
	}
	return dst, []int{ch}
}

// forwardBatchArena implements batchForwarder for ChannelNorm: the per-
// channel affine is hoisted once and streamed over every image's channel
// row, using the exact per-image expression so results stay bit-identical.
func (nrm *ChannelNorm) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	hw := inShape[1] * inShape[2]
	in := nrm.C * hw
	dst := st.a.NewRaw(bsz, in)
	for c := 0; c < nrm.C; c++ {
		std := math.Sqrt(nrm.runVar[c] + nrm.Eps)
		g, bta, mu := nrm.gamma.Value.Data[c], nrm.beta.Value.Data[c], nrm.runMean[c]
		for b := 0; b < bsz; b++ {
			row := src.Data[b*in+c*hw : b*in+(c+1)*hw]
			orow := dst.Data[b*in+c*hw : b*in+(c+1)*hw]
			for i, v := range row {
				orow[i] = g*(v-mu)/std + bta
			}
		}
	}
	return dst, inShape
}

// forwardBatchArena implements batchForwarder for ResidualBlock by
// composing the batched sub-kernels; the shortcut add happens on aligned
// image-major backings.
func (b *ResidualBlock) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	h, hs := b.conv1.forwardBatchArena(src, inShape, bsz, st)
	if b.norm1 != nil {
		h, hs = b.norm1.forwardBatchArena(h, hs, bsz, st)
	}
	h, hs = b.relu1.forwardBatchArena(h, hs, bsz, st)
	h, hs = b.conv2.forwardBatchArena(h, hs, bsz, st)
	if b.norm2 != nil {
		h, hs = b.norm2.forwardBatchArena(h, hs, bsz, st)
	}
	shortcut := src
	if b.proj != nil {
		shortcut, _ = b.proj.forwardBatchArena(src, inShape, bsz, st)
	}
	h.AddInPlace(shortcut)
	return b.outRelu.forwardBatchArena(h, hs, bsz, st)
}

// forwardBatchArena implements batchForwarder for DenseUnit: batched
// branch, then a per-image channel concatenation into the new backing.
func (u *DenseUnit) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	branch, bs := u.conv.forwardBatchArena(src, inShape, bsz, st)
	branch, bs = u.norm.forwardBatchArena(branch, bs, bsz, st)
	branch, bs = u.relu.forwardBatchArena(branch, bs, bsz, st)

	inN := prodShape(inShape)
	brN := prodShape(bs)
	on := inN + brN
	dst := st.a.NewRaw(bsz, on)
	for b := 0; b < bsz; b++ {
		copy(dst.Data[b*on:b*on+inN], src.Data[b*inN:(b+1)*inN])
		copy(dst.Data[b*on+inN:(b+1)*on], branch.Data[b*brN:(b+1)*brN])
	}
	return dst, []int{inShape[0] + bs[0], inShape[1], inShape[2]}
}
