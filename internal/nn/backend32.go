package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file implements the float32 execution backend (DESIGN.md §9): a
// Network is compiled once into a Net32 — a list of inference-only nodes
// holding float32 copies of the weights — and every subsequent forward pass
// runs entirely in float32 through the batched f32 kernels
// (tensor.Im2ColBatch32 + GemmInto32Fast on the FMA microkernel,
// tensor.WinogradConv3x3F32 on scalar targets, MatMulTransBInto32). The
// batch layout is the image-major [B, elems] backing of nn/batch.go.
//
// Accuracy contract: float32 carries ~7 decimal digits, the zoo logits sit
// in single digits, and softmax is computed in float64 from the f32 logits,
// so probability rows agree with the float64 path to ~1e-6 and top-1
// predictions agree on ≥99% of inputs (locked by the backend property
// tests). The compiled net never mutates shared state and is safe for
// concurrent use; the Arena32 is single-goroutine scratch like Arena.

// node32 is one compiled inference node. src is the image-major f32 batch
// backing; implementations return the output backing and per-image shape,
// drawing temporaries from the arena.
type node32 interface {
	forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int)
}

// Net32 is a compiled reduced-precision inference network. Compile32
// produces a float32 net; CompileInt8 produces one whose Conv2D and Dense
// nodes run the uint8 quantized kernels (see quantize.go). A Net32 shares
// no mutable state with its source Network or other inferences: it may be
// used concurrently as long as each call has its own arena.
type Net32 struct {
	InShape []int
	Classes int
	nodes   []node32
	// Quantized reports whether Conv2D/Dense nodes run the int8 kernels.
	Quantized bool
}

// Compile32 compiles the network into a float32 inference net. Weights are
// converted once; the returned net is independent of later training steps
// on the source network. Networks with an ActivationHook cannot be
// compiled — the hook contract is float64 per-layer mutation, which a
// reduced-precision path cannot honor.
func (n *Network) Compile32() (*Net32, error) {
	if n.ActivationHook != nil {
		return nil, fmt.Errorf("nn: Compile32: network has an ActivationHook; reduced-precision backends cannot honor float64 activation hooks")
	}
	nodes := make([]node32, len(n.Layers))
	for i, l := range n.Layers {
		nodes[i] = compileNode32(l)
	}
	return &Net32{
		InShape:   append([]int(nil), n.InShape...),
		Classes:   n.Classes,
		nodes:     nodes,
		Quantized: false,
	}, nil
}

// compileNode32 builds the f32 node for one layer. Unknown layer types get
// the per-image float64 fallback so Net32 stays total over foreign layers.
func compileNode32(l Layer) node32 {
	switch t := l.(type) {
	case *Conv2D:
		return newConv32(t)
	case *Dense:
		return newDense32(t)
	case *ReLU:
		return relu32{}
	case *LeakyReLU:
		return leaky32{alpha: float32(t.Alpha), exact: t.Alpha >= 0 && t.Alpha <= 1}
	case *Flatten:
		return flatten32{}
	case *Dropout:
		return passthrough32{}
	case *MaxPool2D:
		return maxpool32{k: t.K}
	case *AvgPool2D:
		return avgpool32{}
	case *ChannelNorm:
		return newNorm32(t)
	case *ResidualBlock:
		r := &residual32{
			conv1: newConv32(t.conv1),
			conv2: newConv32(t.conv2),
		}
		if t.norm1 != nil {
			r.norm1 = newNorm32(t.norm1)
		}
		if t.norm2 != nil {
			r.norm2 = newNorm32(t.norm2)
		}
		if t.proj != nil {
			r.proj = newConv32(t.proj)
		}
		return r
	case *DenseUnit:
		return &denseunit32{
			conv: newConv32(t.conv),
			norm: newNorm32(t.norm),
			relu: relu32{},
		}
	default:
		return fallback32{l: l}
	}
}

// InferBatch classifies a minibatch and returns one float64 softmax row per
// input, index-aligned with xs. Inputs are float64 tensors (the engine's
// image type) converted to float32 on entry; softmax runs in float64 over
// the f32 logits. All batch sizes including 1 take the same fused kernels,
// and an image's row is bit-identical at every batch size and slot: the
// integer GEMM is blocking-invariant, and the f32 FMA GEMM gives every
// column the same accumulation chain whatever N is. A nil arena allocates
// a private one.
func (n *Net32) InferBatch(xs []*tensor.T, a *tensor.Arena32) [][]float64 {
	bsz := len(xs)
	out := make([][]float64, bsz)
	if bsz == 0 {
		return out
	}
	if a == nil {
		a = tensor.NewArena32()
	}
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("nn: Net32.InferBatch: mixed input shapes %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	shape := append([]int(nil), xs[0].Shape...)
	elems := prodShape(shape)
	cur := a.NewRaw(bsz, elems)
	for b, x := range xs {
		row := cur.Data[b*elems : (b+1)*elems]
		for i, v := range x.Data {
			row[i] = float32(v)
		}
	}
	for _, nd := range n.nodes {
		cur, shape = nd.forward(cur, shape, bsz, a)
	}
	cls := prodShape(shape)
	for b := 0; b < bsz; b++ {
		out[b] = softmax64From32(cur.Data[b*cls : (b+1)*cls])
	}
	return out
}

// softmax64From32 computes a float64 softmax row from float32 logits with
// the same max-shift formulation the float64 path uses.
func softmax64From32(logits []float32) []float64 {
	out := make([]float64, len(logits))
	maxv := math.Inf(-1)
	for _, v := range logits {
		if fv := float64(v); fv > maxv {
			maxv = fv
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(float64(v) - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// conv32 is the compiled float32 convolution. With the vector kernels
// enabled it lowers the batch with Im2ColBatch32 and runs the FMA GEMM —
// measured ~4× over the float64 Winograd path at B=32 (BENCH_quant.json);
// on scalar targets Winograd-eligible geometries keep the F(4×4,3×3)
// transform (the multiply-count cut is what wins without SIMD) and the rest
// take the bit-exact f32 GEMM.
type conv32 struct {
	inC, outC, kh, kw, stride, pad int

	weight *tensor.T32 // [OutC, InC*KH*KW]
	bias   []float32   // [OutC]

	// winoU32 is the prepacked Winograd filter transform (DESIGN.md §14),
	// computed once at compile time for 3×3/s1/p1 kernels. nil for other
	// shapes; the forward also honours the tensor.SetPrepack kill-switch.
	winoU32 []float32
}

func newConv32(c *Conv2D) *conv32 {
	bias := make([]float32, c.OutC)
	for i, v := range c.bias.Value.Data {
		bias[i] = float32(v)
	}
	cc := &conv32{
		inC: c.InC, outC: c.OutC, kh: c.KH, kw: c.KW, stride: c.Stride, pad: c.Pad,
		weight: tensor.To32(c.weight.Value),
		bias:   bias,
	}
	if cc.kh == 3 && cc.kw == 3 && cc.stride == 1 && cc.pad == 1 {
		cc.winoU32 = tensor.PackWinoFilter32(cc.weight, cc.outC, cc.inC)
	}
	return cc
}

func (c *conv32) geometry(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.inC, InH: in[1], InW: in[2],
		KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad,
	}
}

func (c *conv32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	g := c.geometry(inShape)
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
	ckk := c.inC * c.kh * c.kw

	if !tensor.SIMDEnabled() && tensor.WinogradEligible(g) {
		dst := a.NewRaw(bsz, c.outC*ohw)
		if c.winoU32 != nil && tensor.PrepackEnabled() {
			tensor.WinogradConv3x3F32Pre(dst, src, bsz, c.outC, c.winoU32, c.bias, g, a)
		} else {
			tensor.WinogradConv3x3F32(dst, src, bsz, c.outC, c.weight, c.bias, g, a)
		}
		if s := a.Abft(); s != nil {
			s.Record(tensor.VerifyWinogradConv32(dst, src, bsz, c.outC, c.weight, c.bias, g))
		}
		return dst, []int{c.outC, oh, ow}
	}

	cm := a.NewRaw(c.outC, bsz*ohw)
	if tensor.PrepackEnabled() && a.Abft() == nil && bsz*ohw >= tensor.ImplicitConvMinN {
		// Implicit GEMM: the im2col operand is generated block-by-block
		// inside the panel loop, never materialized (DESIGN.md §14).
		tensor.ConvGemmIm2Col32(cm, c.weight, src.Data[:bsz*c.inC*g.InH*g.InW], bsz, g)
	} else {
		// Verified mode needs the materialized cols for the checksum pass.
		cols := a.NewRaw(ckk, bsz*ohw)
		tensor.Im2ColBatch32(cols, src, bsz, g)
		tensor.GemmInto32Fast(cm, c.weight, cols)
		if s := a.Abft(); s != nil {
			s.Record(tensor.VerifyGemm32(cm, c.weight, cols))
		}
	}

	dst := a.NewRaw(bsz, c.outC*ohw)
	for oc := 0; oc < c.outC; oc++ {
		crow := cm.Data[oc*bsz*ohw : (oc+1)*bsz*ohw]
		for b := 0; b < bsz; b++ {
			drow := dst.Data[b*c.outC*ohw+oc*ohw : b*c.outC*ohw+(oc+1)*ohw]
			tensor.AddBiasRow(drow, crow[b*ohw:(b+1)*ohw], c.bias[oc])
		}
	}
	return dst, []int{c.outC, oh, ow}
}

// dense32 is the compiled float32 fully connected layer: one
// [B,In] × [In,Out]ᵀ matmul plus a bias row broadcast.
type dense32 struct {
	in, out int
	weight  *tensor.T32 // [Out, In]
	bias    []float32
}

func newDense32(d *Dense) *dense32 {
	bias := make([]float32, d.Out)
	for i, v := range d.bias.Value.Data {
		bias[i] = float32(v)
	}
	return &dense32{in: d.In, out: d.Out, weight: tensor.To32(d.weight.Value), bias: bias}
}

func (d *dense32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	if prodShape(inShape) != d.in {
		panic(fmt.Sprintf("nn: dense32: batched input of %d elements, want %d", prodShape(inShape), d.in))
	}
	x := src.Reshape(bsz, d.in)
	dst := a.NewRaw(bsz, d.out)
	tensor.MatMulTransBInto32(dst, x, d.weight)
	if s := a.Abft(); s != nil {
		s.Record(tensor.VerifyMatMulTransB32(dst, x, d.weight))
	}
	for b := 0; b < bsz; b++ {
		row := dst.Data[b*d.out : (b+1)*d.out]
		for o, bv := range d.bias {
			row[o] += bv
		}
	}
	return dst, []int{d.out}
}

// relu32 rectifies the whole batch buffer branchlessly.
type relu32 struct{}

func (relu32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	dst := a.NewRaw(bsz, prodShape(inShape))
	dd := dst.Data
	for i, v := range src.Data {
		dd[i] = max(v, 0)
	}
	return dst, inShape
}

// leaky32 mirrors LeakyReLU's batched kernel: max(v, α·v) for 0 ≤ α ≤ 1,
// the literal comparison otherwise.
type leaky32 struct {
	alpha float32
	exact bool
}

func (l leaky32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	dst := a.NewRaw(bsz, prodShape(inShape))
	dd := dst.Data
	if l.exact {
		for i, v := range src.Data {
			dd[i] = max(v, l.alpha*v)
		}
		return dst, inShape
	}
	for i, v := range src.Data {
		if v > 0 {
			dd[i] = v
		} else {
			dd[i] = l.alpha * v
		}
	}
	return dst, inShape
}

// flatten32 is a pure shape change.
type flatten32 struct{}

func (flatten32) forward(src *tensor.T32, inShape []int, bsz int, _ *tensor.Arena32) (*tensor.T32, []int) {
	return src, []int{prodShape(inShape)}
}

// passthrough32 forwards the backing unchanged (inference Dropout). The
// backing is arena-owned and no node mutates its input, so sharing is safe.
type passthrough32 struct{}

func (passthrough32) forward(src *tensor.T32, inShape []int, bsz int, _ *tensor.Arena32) (*tensor.T32, []int) {
	return src, inShape
}

// maxpool32 mirrors MaxPool2D's batched kernel: branchless 2×2
// specialization, general K×K otherwise.
type maxpool32 struct{ k int }

func (p maxpool32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	ch, h, w := inShape[0], inShape[1], inShape[2]
	oh, ow := h/p.k, w/p.k
	in, on := ch*h*w, ch*oh*ow
	dst := a.NewRaw(bsz, on)
	for b := 0; b < bsz; b++ {
		if p.k == 2 {
			maxPool2Into32(dst.Data[b*on:(b+1)*on], src.Data[b*in:(b+1)*in], ch, h, w)
		} else {
			maxPoolInto32(dst.Data[b*on:(b+1)*on], src.Data[b*in:(b+1)*in], ch, h, w, p.k)
		}
	}
	return dst, []int{ch, oh, ow}
}

func maxPool2Into32(dst, src []float32, ch, h, w int) {
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

func maxPoolInto32(dst, src []float32, ch, h, w, k int) {
	oh, ow := h/k, w/k
	for c := 0; c < ch; c++ {
		chanOff := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
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

// avgpool32 is the global average pool; the channel sum accumulates in
// float64 so the division matches the f64 path within one f32 rounding.
type avgpool32 struct{}

func (avgpool32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	ch, hw := inShape[0], inShape[1]*inShape[2]
	in := ch * hw
	dst := a.NewRaw(bsz, ch)
	for b := 0; b < bsz; b++ {
		sd := src.Data[b*in : (b+1)*in]
		dd := dst.Data[b*ch : (b+1)*ch]
		for c := 0; c < ch; c++ {
			s := 0.0
			for _, v := range sd[c*hw : (c+1)*hw] {
				s += float64(v)
			}
			dd[c] = float32(s / float64(hw))
		}
	}
	return dst, []int{ch}
}

// norm32 is ChannelNorm with the inference affine folded at compile time:
// y = scale[c]·x + shift[c] where scale = γ/σ and shift = β − γ·μ/σ. The
// fold reassociates the f64 expression once; the per-element work is a
// single f32 multiply-add.
type norm32 struct {
	c            int
	scale, shift []float32
}

func newNorm32(n *ChannelNorm) *norm32 {
	m := &norm32{c: n.C, scale: make([]float32, n.C), shift: make([]float32, n.C)}
	for c := 0; c < n.C; c++ {
		std := math.Sqrt(n.runVar[c] + n.Eps)
		g, beta, mu := n.gamma.Value.Data[c], n.beta.Value.Data[c], n.runMean[c]
		m.scale[c] = float32(g / std)
		m.shift[c] = float32(beta - g*mu/std)
	}
	return m
}

func (n *norm32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	hw := inShape[1] * inShape[2]
	in := n.c * hw
	dst := a.NewRaw(bsz, in)
	for b := 0; b < bsz; b++ {
		for c := 0; c < n.c; c++ {
			s, sh := n.scale[c], n.shift[c]
			row := src.Data[b*in+c*hw : b*in+(c+1)*hw]
			orow := dst.Data[b*in+c*hw : b*in+(c+1)*hw]
			for i, v := range row {
				orow[i] = s*v + sh
			}
		}
	}
	return dst, inShape
}

// residual32 composes the compiled sub-kernels; the shortcut add runs on
// aligned image-major backings. The sub-convolutions always allocate a new
// backing, so the in-place add never aliases the shortcut.
type residual32 struct {
	conv1, conv2 *conv32
	norm1, norm2 *norm32
	proj         *conv32
}

func (r *residual32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	h, hs := r.conv1.forward(src, inShape, bsz, a)
	if r.norm1 != nil {
		h, hs = r.norm1.forward(h, hs, bsz, a)
	}
	h, hs = relu32{}.forward(h, hs, bsz, a)
	h, hs = r.conv2.forward(h, hs, bsz, a)
	if r.norm2 != nil {
		h, hs = r.norm2.forward(h, hs, bsz, a)
	}
	shortcut := src
	if r.proj != nil {
		shortcut, _ = r.proj.forward(src, inShape, bsz, a)
	}
	hd, sd := h.Data, shortcut.Data
	for i := range hd {
		hd[i] += sd[i]
	}
	for i, v := range hd {
		hd[i] = max(v, 0)
	}
	return h, hs
}

// denseunit32 runs the compiled growth branch then concatenates channels
// per image.
type denseunit32 struct {
	conv *conv32
	norm *norm32
	relu relu32
}

func (u *denseunit32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	branch, bs := u.conv.forward(src, inShape, bsz, a)
	branch, bs = u.norm.forward(branch, bs, bsz, a)
	branch, bs = u.relu.forward(branch, bs, bsz, a)

	inN := prodShape(inShape)
	brN := prodShape(bs)
	on := inN + brN
	dst := a.NewRaw(bsz, on)
	for b := 0; b < bsz; b++ {
		copy(dst.Data[b*on:b*on+inN], src.Data[b*inN:(b+1)*inN])
		copy(dst.Data[b*on+inN:(b+1)*on], branch.Data[b*brN:(b+1)*brN])
	}
	return dst, []int{inShape[0] + bs[0], inShape[1], inShape[2]}
}

// fallback32 round-trips foreign layer types through their float64 Forward
// image by image, keeping Net32 total over layers added outside this file.
type fallback32 struct{ l Layer }

func (f fallback32) forward(src *tensor.T32, inShape []int, bsz int, a *tensor.Arena32) (*tensor.T32, []int) {
	in := prodShape(inShape)
	var dst *tensor.T32
	var outShape []int
	for b := 0; b < bsz; b++ {
		x := tensor.New(inShape...)
		for i, v := range src.Data[b*in : (b+1)*in] {
			x.Data[i] = float64(v)
		}
		y := f.l.Forward(x, false)
		if dst == nil {
			outShape = append([]int(nil), y.Shape...)
			dst = a.NewRaw(bsz, y.Len())
		}
		row := dst.Data[b*y.Len() : (b+1)*y.Len()]
		for i, v := range y.Data {
			row[i] = float32(v)
		}
	}
	return dst, outShape
}
