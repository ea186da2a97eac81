package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sieve/internal/frame"
)

// goldenStream describes one pinned encode: a seeded synthetic clip, the
// encoder parameters, and the SHA-256 of every payload the encoder must
// produce for it. The hashes were recorded from the reference implementation
// and pin the bitstream byte-for-byte: any codec change that alters a single
// bit of output fails here mechanically, instead of relying on round-trip
// tests to notice by luck.
type goldenStream struct {
	name    string
	p       Params
	w, h    int
	frames  int
	enter   int
	seed    int64
	video   func(w, h, n, enter int, seed int64) []*frame.YUV
	digests []string // "<type>:<sha256>" per frame, in encode order
}

// noisyVideo is the benchmark's traffic in miniature: a smooth textured
// background, zero-mean sensor noise of peak amplitude 2 on EVERY luma pixel
// of every frame (testVideo only touches 2 % of them, so most of its
// residual blocks quantise to zero), and one textured object that enters at
// frame `enter` and crosses left to right. With a width that is 8 mod 16 the
// last macroblock column hangs half outside the plane, so the partial-
// macroblock kernels and the noisy non-zero blocks are both on the pinned
// path.
func noisyVideo(w, h, n, enter int, seed int64) []*frame.YUV {
	rng := rand.New(rand.NewSource(seed))
	bg := frame.NewYUV(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			bg.Y.Set(x, y, byte(70+x/2+y+(x*y)%7))
		}
	}
	for y := 0; y < h/2; y++ {
		for x := 0; x < w/2; x++ {
			bg.Cb.Set(x, y, byte(118+x%5))
			bg.Cr.Set(x, y, byte(132-y%4))
		}
	}
	frames := make([]*frame.YUV, 0, n)
	for i := 0; i < n; i++ {
		f := bg.Clone()
		if i >= enter {
			ox := (i-enter)*3 - w/6
			for y := h / 2; y < h/2+h/4; y++ {
				for x := ox; x < ox+w/4; x++ {
					f.Y.Set(x, y, byte(200+(x-ox+y)%23))
					f.Cb.Set(x/2, y/2, 95)
					f.Cr.Set(x/2, y/2, 165)
				}
			}
		}
		// Triangular noise in [-2, 2]: the mean of two uniforms, as the
		// synthetic renderer draws it.
		for idx, v := range f.Y.Pix {
			f.Y.Pix[idx] = frame.Clamp(int(v) + (rng.Intn(5)+rng.Intn(5)-4)/2)
		}
		frames = append(frames, f)
	}
	return frames
}

var goldenStreams = []goldenStream{
	{
		name: "mixed-gop-scenecut-64x48",
		p:    Params{Width: 64, Height: 48, Quality: 85, GOPSize: 8, Scenecut: 180},
		w:    64, h: 48, frames: 16, enter: 5, seed: 42,
		video: testVideo,
		digests: []string{
			"I:ae6eda259afa8a68fe12955c3479f8fc716301968e63699642eee086ec46ef9f",
			"P:e20007ee3ea2ce38cf3891ca1c75f91578c9ee0a88eea4a24efe0b52f91d50f2",
			"P:cb216ce4e90e949e10c58562838463f58f9084e2c257ed935e9e1fe232bcbc39",
			"P:011dacb3b0e3408fe20b9276242f1f98e4fb27150e6e9ba44eac7412d36c91a1",
			"P:b92f0846a6326a16cad09344dd1adadb4cd5437e91763a1e19a8e06cc62c3b6e",
			"I:145ab1b78ea1447765b14bb9e65037fcf836a5bea47c92e6f8aa9beea0da5876",
			"I:d7718fdb3e3f1ea75f284be854ac07d0e0c535ba55c3e04c564c8850ca471b84",
			"P:901c96e2b0d8fa09b8ecf38444cc79cf4edf6654bbfbf5fd1824f06650b47c55",
			"P:6301fc5b184361bbbfac0504056a0af1e4f9aaa064c022c3b62ee5a17d3c4051",
			"P:8e8e6dbc22e6b7a129b9417ccd73183c1db10f33934937e54fc74f42dc7c8f9f",
			"P:2077020b2b369ad4520dc200ef896854d72c70c0becd21f2e5017fd4324abd2d",
			"P:9b22dc527e0aee05c005512b3bbe919e6419a9e7debd7e2a3143cc16dda3a756",
			"P:c9fe1b2bd1cb6f5a059c244c93c53e0a68d0b96d42dfb3fe1ab165791fde4723",
			"P:5604c8db30b69fce19b85280a4cb2bb4124a19f4c696a8bb91abd1a68911ef3b",
			"I:b6d736c6d5c4e7026669be15b071eaf31e63faacca6f5fec459159323f67b63e",
			"P:58db7071c7ba93f06e403c6326857b61f9f7c48ead3f8a3d2c09e389a7521d47",
		},
	},
	{
		name: "edge-dims-36x28",
		p:    Params{Width: 36, Height: 28, Quality: 70, GOPSize: 3, Scenecut: 0},
		w:    36, h: 28, frames: 6, enter: 2, seed: 7,
		video: testVideo,
		digests: []string{
			"I:d2c581858489908e1f8aaaf3350c457f8601fdbd2ad16ac5508d801ee490c5f0",
			"P:aadc10e05188a1d25cdcd58966a85b74a83bcf5b7be2f7e9d42e47935ba61d46",
			"P:d7de221bb07af3dfee15e1add12a0bf25762cf867b20425356b6f6bccab60aee",
			"I:a4b126b21e885e4eac09a450d17850c688caf5f57cf3aa2b737a9b1cfbcfdd7f",
			"P:7ca12fe1a0068868cbca54322c101004283324aaafbf34108dff6b1f08cb613e",
			"P:84cff41c602824114713fd487337ba29786f063074e416c36304cea1c03c56f8",
		},
	},
	{
		// Recorded by the pre-fast-path kernels (see CHANGES.md, PR 18) and
		// not touched since.
		name: "noisy-partial-mb-88x64",
		p:    Params{Width: 88, Height: 64, Quality: 85, GOPSize: 25, Scenecut: 0, SkipSAD: 192},
		w:    88, h: 64, frames: 32, enter: 6, seed: 18,
		video: noisyVideo,
		digests: []string{
			"I:19d56f18d4b44edcc2abe51e4f057cb5cd4c6a8c40ea3dc7c2826c6bc80b47de",
			"P:4f8613742dcf8080c990c5d47209f9aac24d118c55c595086d281cb7bab073c5",
			"P:0c745f70c174dbf31a3e7347e61b54806b6ba4e6da1d0ba926b845f00841944e",
			"P:0a4f08d2059251d771b3bd99af477b073cea421b03b563583755a26ac6a3fd82",
			"P:41e8c37f3d33f98b35cc8efcd085cb790046c5382633874d9e49eb894f93f527",
			"P:53ca16d29b0b5e6beacb0470347ba95229ba34e3752c4bba912d2e9e070c8d78",
			"P:fd5959fe3a58eb550c9dddf8bad473e276916cb2586769e95bbe3ee08f7c65eb",
			"P:9aac90c235e1e0fce77e01ad36f3da46d2b388d5c8975db33d41298b3619d515",
			"P:4149419ea2fc325dbcbef8e12812a4d1b3af1b9abe3c25c481351a39c7fd32ed",
			"P:e22add0045404982a8fffad3695df358740b307e9e368d79871f87512a892a70",
			"P:5b715543bf468122abb631d71019dd406883c00b0193e9f513919fd832a4d5ed",
			"P:ee918cad8baf1b91aa31da7bdfc216a3988cfded610ff7309a8fc0c33ab08cf4",
			"P:84dd058a7e961cd89852572355bdd2b4ad396fbf0cf78aa881cc36bfe7c71a27",
			"P:68ef63029ec8e31351bf2ecabe29f06f159472fbd0556dc377c6e18c184ba5bc",
			"P:e5ab63396c4706d395591a088c9970e069db8dd0055b095ffbf0e5d77d2421b7",
			"P:c94039a0686362642e5ea833f50174f4758a7b5bf80a7dd5d5011034d9958f7a",
			"P:22353ab15615d901bb71132db334d9ef13348f875c7d6d8d060d2fa7c55a2b14",
			"P:1e85400fa304721775805b5fe5ada535be3f581f4d415bcdcf03ac2353718061",
			"P:d8b0370133a5d78cac49125b82546416bf3c85c56c2419cf465be06a7edde91b",
			"P:5d9fd7d6043225d9d4169773623d91558eb447aa1764ffdfd2589991dce8c074",
			"P:1692e1d7607f158671a0018a60eddec170edeac88ef1d413f9e164617e3012df",
			"P:9996884d9c864674c5b034709161507d6694909804af0472f71a289f36945af6",
			"P:aa1d4a2ac08bfe3ffc3a208494d2edb7d4b12f2f2341a5655d723ca2c9459368",
			"P:5462e3e9fe5d0eba3cdd9b5644011316e81e9f51c9d3b7bc106caf6649e51e89",
			"P:ca59db3a18187ff68e24057d908e66475ce3d039fb09458847c80fe236da572e",
			"I:ea221489e8243fab7a28b5de8ac46cdc15e3e39c936fb66ff814039381334629",
			"P:f19d5c8116ca398dae9ae7b43071d5fd24a1a1b789ed92ba9f18842457e91f25",
			"P:404d165555e8dc7aa69118d19d503b742142f783deb9a9fdab614e4a995f5b4c",
			"P:af6b22d1f5419da10db2d31acc59840b79f48660739801b6e022d6494dd35720",
			"P:eaec61c7040dae6b1d1a100e6a43a461c11786c5094a70732470543dfd076c80",
			"P:06e839841ae303df6963e57b347b7bb83c2809ea92fff6416485d46396b936cb",
			"P:80e698a2050a27a1c3d9e913d1d8165a4011b4da68e279331d131cb4842fd5b9",
		},
	},
}

// TestGoldenBitstream locks the encoder output byte-for-byte. If a change is
// *meant* to alter the bitstream (a format change), the failure message
// prints the replacement literal to paste into the fixture above — but for a
// pure refactor or optimisation this test failing means the change is wrong.
func TestGoldenBitstream(t *testing.T) {
	for _, g := range goldenStreams {
		t.Run(g.name, func(t *testing.T) {
			frames := g.video(g.w, g.h, g.frames, g.enter, g.seed)
			encoded := encodeAll(t, g.p, frames)
			got := make([]string, len(encoded))
			for i, ef := range encoded {
				sum := sha256.Sum256(ef.Data)
				got[i] = fmt.Sprintf("%s:%s", ef.Type, hex.EncodeToString(sum[:]))
			}
			if len(g.digests) == 0 || !slices.Equal(got, g.digests) {
				var b strings.Builder
				for _, d := range got {
					fmt.Fprintf(&b, "\t\t\t%q,\n", d)
				}
				t.Fatalf("bitstream digests changed; if intentional, update the fixture to:\n%s", b.String())
			}
		})
	}
}
