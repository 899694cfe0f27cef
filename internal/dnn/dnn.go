// Package dnn provides layer-accurate parameter and FLOP tables for the four
// networks the paper evaluates — AlexNet, VGG16, ResNet50 and GoogLeNet —
// computed from the architectural shapes (kernel size, channel counts,
// strides and the resulting spatial resolutions, fully-connected dimensions,
// batch-norm affine pairs). It also provides transformer language models
// (BERT-Large, GPT-2 XL) as modern extension workloads, gradient sizing, and
// the gradient-bucket partitioning data-parallel trainers use to overlap
// communication with backpropagation.
//
// Parameter totals are asserted against the published counts in tests:
// AlexNet 62,378,344 ("62.3M" in the paper), VGG16 138,357,544 ("138M"),
// ResNet50 25,557,032 ("25M"), GoogLeNet 6,998,552 (paper quotes 6.7977M;
// the small delta is bias bookkeeping — documented in DESIGN.md). FLOP
// totals are asserted against published GMACs.
package dnn

import (
	"fmt"
	"strings"
	"sync"
)

// Layer is one parameterized layer (convolution, batch-norm, fully connected
// or transformer sublayer). Parameter counts are per layer so trainers can
// bucket gradients layer-by-layer in backprop (reverse) order; FLOPs are the
// forward cost for one example (0 when unknown).
type Layer struct {
	Name   string
	Params int64
	FLOPs  int64
}

// Model is a named network with its parameter table in forward order.
type Model struct {
	Name   string
	Layers []Layer
}

// TotalParams sums the table.
func (m Model) TotalParams() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.Params
	}
	return t
}

// GradientBytes returns the byte size of one full gradient exchange at the
// given element width (4 for FP32, 2 for FP16).
func (m Model) GradientBytes(bytesPerElem int) int64 {
	return m.TotalParams() * int64(bytesPerElem)
}

func (m Model) String() string {
	return fmt.Sprintf("%s(%.4gM params)", m.Name, float64(m.TotalParams())/1e6)
}

// Bucket is a contiguous run of layers whose gradients are fused into one
// all-reduce, as bucketing DDP implementations do.
type Bucket struct {
	FirstLayer, LastLayer int // inclusive indices into Layers, forward order
	Params                int64
}

// Buckets partitions the model's layers, walking in backprop (reverse) order,
// into fusion buckets of at most capBytes each (at the given element width).
// A single layer larger than the cap gets its own bucket. Buckets are
// returned in backprop order — the order their all-reduces become ready.
func (m Model) Buckets(capBytes int64, bytesPerElem int) ([]Bucket, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("dnn: bucket cap %d", capBytes)
	}
	if bytesPerElem <= 0 {
		return nil, fmt.Errorf("dnn: bytes per elem %d", bytesPerElem)
	}
	var out []Bucket
	i := len(m.Layers) - 1
	for i >= 0 {
		b := Bucket{FirstLayer: i, LastLayer: i, Params: m.Layers[i].Params}
		j := i - 1
		for j >= 0 && (b.Params+m.Layers[j].Params)*int64(bytesPerElem) <= capBytes {
			b.Params += m.Layers[j].Params
			b.FirstLayer = j
			j--
		}
		out = append(out, b)
		i = j
	}
	return out, nil
}

// builder accumulates layers while tracking parameter and FLOP math.
type builder struct {
	m Model
}

func (b *builder) add(name string, params, flops int64) {
	b.m.Layers = append(b.m.Layers, Layer{Name: name, Params: params, FLOPs: flops})
}

// convP returns the parameter count of a 2D convolution with bias.
func convP(k, cin, cout int) int64 {
	return int64(k)*int64(k)*int64(cin)*int64(cout) + int64(cout)
}

// convNoBiasP returns a bias-free convolution (the ResNet/BN convention).
func convNoBiasP(k, cin, cout int) int64 {
	return int64(k) * int64(k) * int64(cin) * int64(cout)
}

// bnP returns the learnable parameters of a batch-norm layer (γ and β).
func bnP(c int) int64 { return 2 * int64(c) }

// fcP returns the parameter count of a fully connected layer with bias.
func fcP(in, out int) int64 { return int64(in)*int64(out) + int64(out) }

// AlexNet returns the classic single-tower AlexNet (Krizhevsky et al. 2012):
// five convolutions plus three fully connected layers, 62,378,344 parameters
// — the paper's "62.3M" — at 227×227 input.
func AlexNet() Model {
	var b builder
	b.m.Name = "AlexNet"
	h := 227
	h = convOut(h, 11, 4, 0) // 55
	b.add("conv1 11x11x3x96", convP(11, 3, 96), convFLOPs(11, 3, 96, h, h))
	h = convOut(h, 3, 2, 0) // pool -> 27
	b.add("conv2 5x5x96x256", convP(5, 96, 256), convFLOPs(5, 96, 256, h, h))
	h = convOut(h, 3, 2, 0) // pool -> 13
	b.add("conv3 3x3x256x384", convP(3, 256, 384), convFLOPs(3, 256, 384, h, h))
	b.add("conv4 3x3x384x384", convP(3, 384, 384), convFLOPs(3, 384, 384, h, h))
	b.add("conv5 3x3x384x256", convP(3, 384, 256), convFLOPs(3, 384, 256, h, h))
	b.add("fc6 9216x4096", fcP(256*6*6, 4096), fcFLOPs(256*6*6, 4096))
	b.add("fc7 4096x4096", fcP(4096, 4096), fcFLOPs(4096, 4096))
	b.add("fc8 4096x1000", fcP(4096, 1000), fcFLOPs(4096, 1000))
	return b.m
}

// VGG16 returns VGG-16 (Simonyan & Zisserman 2014): thirteen convolutions
// and three fully connected layers, 138,357,544 parameters — the paper's
// "138M" — at 224×224 input.
func VGG16() Model {
	var b builder
	b.m.Name = "VGG16"
	type c struct {
		cin, cout int
		pool      bool // max-pool after this conv
	}
	convs := []c{
		{3, 64, false}, {64, 64, true},
		{64, 128, false}, {128, 128, true},
		{128, 256, false}, {256, 256, false}, {256, 256, true},
		{256, 512, false}, {512, 512, false}, {512, 512, true},
		{512, 512, false}, {512, 512, false}, {512, 512, true},
	}
	h := 224
	for i, cc := range convs {
		b.add(fmt.Sprintf("conv%d 3x3x%dx%d", i+1, cc.cin, cc.cout),
			convP(3, cc.cin, cc.cout), convFLOPs(3, cc.cin, cc.cout, h, h))
		if cc.pool {
			h /= 2
		}
	}
	b.add("fc14 25088x4096", fcP(512*7*7, 4096), fcFLOPs(512*7*7, 4096))
	b.add("fc15 4096x4096", fcP(4096, 4096), fcFLOPs(4096, 4096))
	b.add("fc16 4096x1000", fcP(4096, 1000), fcFLOPs(4096, 1000))
	return b.m
}

// ResNet50 returns ResNet-50 (He et al. 2016) with batch-norm affine
// parameters and bias-free convolutions, 25,557,032 parameters — the
// paper's "25M" (torchvision agrees exactly) — at 224×224 input.
func ResNet50() Model {
	var b builder
	b.m.Name = "ResNet50"
	h := convOut(224, 7, 2, 3) // 112
	b.add("conv1 7x7x3x64", convNoBiasP(7, 3, 64), convFLOPs(7, 3, 64, h, h))
	b.add("bn1", bnP(64), bnFLOPs(64, h, h))
	h = convOut(h, 3, 2, 1) // maxpool -> 56

	// bottleneck appends one block: 1x1 reduce, 3x3 (stride s), 1x1 expand,
	// each with BN; downsample adds a projection 1x1 conv (stride s) + BN.
	bottleneck := func(stage, block, cin, mid, cout, stride int, downsample bool) {
		p := fmt.Sprintf("layer%d.%d", stage, block)
		hout := h / stride
		b.add(p+".conv1 1x1", convNoBiasP(1, cin, mid), convFLOPs(1, cin, mid, h, h))
		b.add(p+".bn1", bnP(mid), bnFLOPs(mid, h, h))
		b.add(p+".conv2 3x3", convNoBiasP(3, mid, mid), convFLOPs(3, mid, mid, hout, hout))
		b.add(p+".bn2", bnP(mid), bnFLOPs(mid, hout, hout))
		b.add(p+".conv3 1x1", convNoBiasP(1, mid, cout), convFLOPs(1, mid, cout, hout, hout))
		b.add(p+".bn3", bnP(cout), bnFLOPs(cout, hout, hout))
		if downsample {
			b.add(p+".downsample 1x1", convNoBiasP(1, cin, cout), convFLOPs(1, cin, cout, hout, hout))
			b.add(p+".downsample.bn", bnP(cout), bnFLOPs(cout, hout, hout))
		}
		h = hout
	}
	type stage struct{ blocks, mid, cout, stride int }
	stages := []stage{{3, 64, 256, 1}, {4, 128, 512, 2}, {6, 256, 1024, 2}, {3, 512, 2048, 2}}
	cin := 64
	for si, st := range stages {
		for blk := 0; blk < st.blocks; blk++ {
			stride := 1
			if blk == 0 {
				stride = st.stride
			}
			bottleneck(si+1, blk, cin, st.mid, st.cout, stride, blk == 0)
			cin = st.cout
		}
	}
	b.add("fc 2048x1000", fcP(2048, 1000), fcFLOPs(2048, 1000))
	return b.m
}

// GoogLeNet returns GoogLeNet / Inception-v1 (Szegedy et al. 2015) without
// auxiliary classifiers, convolutions with bias (the pre-BN original),
// 6,998,552 parameters; the paper quotes 6.7977M for the same network.
// Input is 224×224.
func GoogLeNet() Model {
	var b builder
	b.m.Name = "GoogLeNet"
	h := convOut(224, 7, 2, 3) // 112
	b.add("conv1 7x7x3x64", convP(7, 3, 64), convFLOPs(7, 3, 64, h, h))
	h = (h-3)/2 + 2 // ceil-mode maxpool -> 56
	b.add("conv2 1x1x64x64", convP(1, 64, 64), convFLOPs(1, 64, 64, h, h))
	b.add("conv3 3x3x64x192", convP(3, 64, 192), convFLOPs(3, 64, 192, h, h))
	h = (h-3)/2 + 2 // -> 28

	// inception appends one module: 1x1 branch, 1x1→3x3 branch, 1x1→5x5
	// branch, pool→1x1 branch, all at the module's resolution.
	inception := func(name string, in, b1, r3, b3, r5, b5, pp int) {
		b.add(name+".branch1 1x1", convP(1, in, b1), convFLOPs(1, in, b1, h, h))
		b.add(name+".branch2 1x1", convP(1, in, r3), convFLOPs(1, in, r3, h, h))
		b.add(name+".branch2 3x3", convP(3, r3, b3), convFLOPs(3, r3, b3, h, h))
		b.add(name+".branch3 1x1", convP(1, in, r5), convFLOPs(1, in, r5, h, h))
		b.add(name+".branch3 5x5", convP(5, r5, b5), convFLOPs(5, r5, b5, h, h))
		b.add(name+".branch4 1x1", convP(1, in, pp), convFLOPs(1, in, pp, h, h))
	}
	inception("inception3a", 192, 64, 96, 128, 16, 32, 32)
	inception("inception3b", 256, 128, 128, 192, 32, 96, 64)
	h = (h-3)/2 + 2 // -> 14
	inception("inception4a", 480, 192, 96, 208, 16, 48, 64)
	inception("inception4b", 512, 160, 112, 224, 24, 64, 64)
	inception("inception4c", 512, 128, 128, 256, 24, 64, 64)
	inception("inception4d", 512, 112, 144, 288, 32, 64, 64)
	inception("inception4e", 528, 256, 160, 320, 32, 128, 128)
	h = (h-3)/2 + 2 // -> 7
	inception("inception5a", 832, 256, 160, 320, 32, 128, 128)
	inception("inception5b", 832, 384, 192, 384, 48, 128, 128)
	b.add("fc 1024x1000", fcP(1024, 1000), fcFLOPs(1024, 1000))
	return b.m
}

// Transformer builds a decoder/encoder-only transformer language model with
// the given depth, width and vocabulary: per block q/k/v/o projections
// (4d²+4d), a 4d MLP (8d²+5d) and two layer norms (4d), plus token and
// position embeddings. seq is the context length used for FLOP accounting
// (2·params·seq per forward pass, the standard dense-transformer estimate).
func Transformer(name string, layers, dmodel, vocab, seq int) Model {
	var b builder
	b.m.Name = name
	d := int64(dmodel)
	b.add("embed.tokens", int64(vocab)*d, 0)
	b.add("embed.positions", int64(seq)*d, 0)
	for l := 0; l < layers; l++ {
		p := fmt.Sprintf("block%d", l)
		attn := 4*d*d + 4*d
		mlp := 8*d*d + 5*d
		ln := 4 * d
		b.add(p+".attn", attn, 2*attn*int64(seq))
		b.add(p+".mlp", mlp, 2*mlp*int64(seq))
		b.add(p+".ln", ln, 2*ln*int64(seq))
	}
	b.add("ln_f", 2*d, 2*2*d*int64(seq))
	return b.m
}

// BERTLarge returns BERT-Large (Devlin et al. 2018): 24 layers, d=1024,
// ≈336M parameters — a modern extension workload beyond the paper's CNNs.
func BERTLarge() Model {
	return Transformer("BERT-Large", 24, 1024, 30522, 512)
}

// GPT2XL returns GPT-2 XL (Radford et al. 2019): 48 layers, d=1600, ≈1.56B
// parameters — the large-gradient extension workload.
func GPT2XL() Model {
	return Transformer("GPT-2-XL", 48, 1600, 50257, 1024)
}

// catalog names every model constructor in catalog order: the paper's four
// evaluation networks in Figure-2 order, then the transformer extensions.
// It is the one name list: PaperModels, ExtensionModels, ByName, Lookup
// and the "have …" list of the unknown-model error all read it.
var catalog = []struct {
	name  string
	build func() Model
}{
	{"AlexNet", AlexNet},
	{"VGG16", VGG16},
	{"ResNet50", ResNet50},
	{"GoogLeNet", GoogLeNet},
	{"BERT-Large", BERTLarge},
	{"GPT-2-XL", GPT2XL},
}

// numPaper is how many leading catalog entries are the paper's networks.
const numPaper = 4

// PaperModels returns the four evaluation networks in the paper's Figure-2
// order.
func PaperModels() []Model {
	return buildAll(0, numPaper)
}

// ExtensionModels returns the transformer workloads added beyond the paper.
func ExtensionModels() []Model {
	return buildAll(numPaper, len(catalog))
}

// buildAll builds catalog entries [lo, hi) afresh.
func buildAll(lo, hi int) []Model {
	out := make([]Model, 0, hi-lo)
	for _, c := range catalog[lo:hi] {
		out = append(out, c.build())
	}
	return out
}

// ByName looks a model up case-sensitively by its catalog name (the paper's
// four plus the transformer extensions) and builds only that one. Every
// call returns fresh layers, so callers may keep or modify them.
func ByName(name string) (Model, error) {
	for _, c := range catalog {
		if c.name == name {
			return c.build(), nil
		}
	}
	return Model{}, unknownModel(name)
}

// unknownModel is the error of a catalog miss.
func unknownModel(name string) error {
	have := make([]string, len(catalog))
	for i, c := range catalog {
		have[i] = c.name
	}
	return fmt.Errorf("dnn: unknown model %q (have %s)", name, strings.Join(have, ", "))
}

// Entry is a catalog model's scalars: all a name lookup needs to size a
// gradient, without the layer table.
type Entry struct {
	Name   string
	Params int64
	Layers int
}

// GradientBytes is Model.GradientBytes of the entry's model.
func (e Entry) GradientBytes(bytesPerElem int) int64 {
	return e.Params * int64(bytesPerElem)
}

// entries builds every catalog model once, on first use, and keeps only its
// scalars (about 200 B), so name lookups on request paths neither rebuild
// layer tables nor retain them.
var entries = sync.OnceValue(func() []Entry {
	models := append(PaperModels(), ExtensionModels()...)
	out := make([]Entry, len(models))
	for i, m := range models {
		out[i] = Entry{Name: m.Name, Params: m.TotalParams(), Layers: len(m.Layers)}
	}
	return out
})

// PaperEntries returns the entries of the paper's four networks in Figure-2
// order. The slice is shared and read-only.
func PaperEntries() []Entry {
	return entries()[:numPaper:numPaper]
}

// Lookup returns the named model's catalog entry; a miss returns ByName's
// error.
func Lookup(name string) (Entry, error) {
	for _, e := range entries() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, unknownModel(name)
}
