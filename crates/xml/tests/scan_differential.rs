//! Differential tests for the vectorized scanning module: every kernel
//! tier (scalar / SWAR / SSE2 / AVX2) must be byte-identical to the
//! scalar reference on adversarial inputs, for the `find_*` searches and
//! the block classifier alike, and the full lexer must produce identical
//! token streams under every forced kernel × chunk size combination —
//! including chunk-boundary straddles.

use gcx_xml::scan::{self, ScanKernel};
use gcx_xml::{TagId, TagInterner, XmlError, XmlEvent, XmlLexer, XmlWriter};
use std::io::Read;

include!("support/tokens.rs");

/// Deterministic xorshift64* so the random corpus is reproducible.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn byte_from(&mut self, alphabet: &[u8]) -> u8 {
        alphabet[(self.next_u64() % alphabet.len() as u64) as usize]
    }
}

/// Asserts every available kernel agrees with the scalar reference on
/// all five scan primitives over `hay`.
fn assert_kernels_agree(hay: &[u8], ctx: &str) {
    let fb = scan::find_byte_with(ScanKernel::Scalar, hay, b'<');
    let fb2 = scan::find_byte2_with(ScanKernel::Scalar, hay, b'<', b'&');
    let fb3 = scan::find_byte3_with(ScanKernel::Scalar, hay, b'>', b'"', b'\'');
    let fnw = scan::find_non_ws_with(ScanKernel::Scalar, hay);
    let nrl = scan::name_run_len_with(ScanKernel::Scalar, hay);
    for k in ScanKernel::available() {
        assert_eq!(
            scan::find_byte_with(k, hay, b'<'),
            fb,
            "find_byte {k:?} {ctx} len={}",
            hay.len()
        );
        assert_eq!(
            scan::find_byte2_with(k, hay, b'<', b'&'),
            fb2,
            "find_byte2 {k:?} {ctx} len={}",
            hay.len()
        );
        assert_eq!(
            scan::find_byte3_with(k, hay, b'>', b'"', b'\''),
            fb3,
            "find_byte3 {k:?} {ctx} len={}",
            hay.len()
        );
        assert_eq!(
            scan::find_non_ws_with(k, hay),
            fnw,
            "find_non_ws {k:?} {ctx} len={}",
            hay.len()
        );
        assert_eq!(
            scan::name_run_len_with(k, hay),
            nrl,
            "name_run_len {k:?} {ctx} len={}",
            hay.len()
        );
    }
}

/// Target byte at every position of every length 0..=200 — covers the
/// 16-byte quick block, the 64-byte unrolled main loop, 16-byte tail
/// blocks and the scalar tail, plus the miss (no target) case.
#[test]
fn target_at_every_position() {
    for len in 0..=200usize {
        let base = vec![b'a'; len];
        assert_kernels_agree(&base, "miss");
        for pos in 0..len {
            for target in [b'<', b'&', b'>', b'"', b'\'', b' ', b'\n'] {
                let mut hay = base.clone();
                hay[pos] = target;
                assert_kernels_agree(&hay, "single-target");
            }
        }
    }
}

/// Name runs and whitespace runs of every length 0..=200, terminated at
/// every boundary class (run fills haystack, run ends mid-haystack).
#[test]
fn run_lengths_exhaustive() {
    for run in 0..=200usize {
        for tail_len in [0usize, 1, 3, 17, 65] {
            let mut name = vec![b'x'; run];
            name.extend(std::iter::repeat_n(b'<', tail_len));
            assert_kernels_agree(&name, "name-run");

            let mut ws = vec![b' '; run];
            ws.extend(std::iter::repeat_n(b'z', tail_len));
            assert_kernels_agree(&ws, "ws-run");
        }
    }
}

/// Every slice offset 0..64 into a random buffer: the kernels use
/// unaligned loads, so alignment must never change the answer.
#[test]
fn unaligned_slices() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // Mostly filler, sparse structural bytes.
    let alphabet = b"aaaaaaaaaaaaaaaabcdefgh <>&\"'\n\t_-.:";
    let buf: Vec<u8> = (0..4096).map(|_| rng.byte_from(alphabet)).collect();
    for off in 0..64usize {
        for len in [
            0usize, 1, 7, 15, 16, 17, 31, 63, 64, 65, 79, 80, 81, 127, 128, 200, 1000,
        ] {
            if off + len <= buf.len() {
                assert_kernels_agree(&buf[off..off + len], "unaligned");
            }
        }
    }
}

/// SWAR borrow-chain adversaries: 0x01 bytes sit exactly one below a
/// zero, where the `wrapping_sub` trick can produce false carries in
/// lanes above the first true hit; 0x80/0xFF stress the sign bits the
/// masks are built from.
#[test]
fn swar_borrow_adversaries() {
    let patterns: &[&[u8]] = &[
        &[0x01; 40],
        &[0x00; 40],
        &[0xFF; 40],
        &[0x80; 40],
        &[0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00],
        b"\x1f\x1f\x1f\x1f<\x1f\x1f\x1f",
        b"\x01\x01\x01\x01\x01\x01\x01<",
    ];
    for p in patterns {
        for off in 0..p.len() {
            assert_kernels_agree(&p[off..], "borrow");
        }
    }
    // Target value adjacencies: for each probe byte b, haystacks of b-1,
    // b, b+1 in every arrangement over two words.
    for b in [b'<', b'&', b'>', b'"', b'\'', b' '] {
        let vals = [b.wrapping_sub(1), b, b.wrapping_add(1)];
        for i in 0..3 {
            for j in 0..3 {
                let mut hay = [vals[i]; 16];
                hay[9] = vals[j];
                assert_kernels_agree(&hay, "adjacent-value");
            }
        }
    }
}

/// Random haystacks from a structural-byte-rich alphabet.
#[test]
fn random_haystacks() {
    let mut rng = Rng(0xdead_beef_cafe_f00d);
    let alphabet = b"ab<>&\"' \t\r\nxyz_-.:]";
    for _ in 0..2000 {
        let len = (rng.next_u64() % 300) as usize;
        let hay: Vec<u8> = (0..len).map(|_| rng.byte_from(alphabet)).collect();
        assert_kernels_agree(&hay, "random");
    }
}

/// Asserts every available kernel's block classifier agrees with the
/// scalar reference on `block`.
fn assert_block_classes_agree(block: &[u8], ctx: &str) {
    let block: &[u8; 64] = block.try_into().expect("a 64-byte block");
    let reference = scan::block_classes_with(ScanKernel::Scalar, block);
    for k in ScanKernel::available() {
        assert_eq!(
            scan::block_classes_with(k, block),
            reference,
            "block_classes {k:?} {ctx} block={block:?}"
        );
    }
}

/// Each class byte, and non-ASCII bytes, alone at every position of a
/// filler block and of a block full of another class byte — so every
/// lane of every word and vector is probed, and no class leaks into a
/// neighbour's mask.
#[test]
fn block_classes_byte_at_every_position() {
    let probes = [
        b'<', b'>', b'/', b'!', b'?', b'"', b'\'', 0x80, 0xbc, 0xc3, 0xff, 0x3b, 0x3d,
    ];
    for filler in [b'a', b'<', b'"', 0x00, 0xff] {
        assert_block_classes_agree(&[filler; 64], "filler");
        for pos in 0..64 {
            for probe in probes {
                let mut block = [filler; 64];
                block[pos] = probe;
                assert_block_classes_agree(&block, "single-byte");
            }
        }
    }
    // The reference itself, on the bit order the lexer relies on.
    let mut block = [b'a'; 64];
    block[0] = b'<';
    block[63] = b'>';
    block[5] = b'?';
    block[6] = b'\'';
    let c = scan::block_classes_with(ScanKernel::Scalar, &block);
    assert_eq!(
        (c.lt, c.gt, c.bang, c.quote, c.slash),
        (1, 1 << 63, 1 << 5, 1 << 6, 0)
    );
}

/// Random blocks from the structural alphabet plus non-ASCII bytes.
#[test]
fn block_classes_random_blocks() {
    let mut rng = Rng(0x0bad_cafe_1234_5678);
    let alphabet = b"<>/!?\"'ab =\n\x80\xc3\xff\x3b\x3d";
    for _ in 0..3000 {
        let block: Vec<u8> = (0..64).map(|_| rng.byte_from(alphabet)).collect();
        assert_block_classes_agree(&block, "random");
    }
}

/// Every 64-byte window of a 4 KiB buffer: unaligned loads at every
/// offset must classify alike.
#[test]
fn block_classes_unaligned_slices() {
    let mut rng = Rng(0x5eed_0fb1_0c00_0001);
    let alphabet = b"aaaaaaaabcd <>/!?\"'\n\xc3\xa9";
    let buf: Vec<u8> = (0..4096).map(|_| rng.byte_from(alphabet)).collect();
    for off in 0..=buf.len() - 64 {
        assert_block_classes_agree(&buf[off..off + 64], "unaligned");
    }
}

// ---------------------------------------------------------------------
// Lexer-level differential: full documents, forced kernels, chunked IO
// ---------------------------------------------------------------------

/// Feeds the lexer `chunk` bytes per `read` call so buffer windows end
/// at arbitrary byte positions — every scan must behave identically
/// when its target straddles a refill boundary.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for ChunkedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Adversarial whole documents: overlapping CDATA terminators, comments
/// with dash runs, quoted `>` in attributes and DOCTYPE literals, PIs,
/// entity references, bachelor tags.
const DOCS: &[&str] = &[
    "<r><k><![CDATA[x]]]></k><after/></r>",
    "<r><k><![CDATA[y]]]]></k><!--z---><after/></r>",
    "<r><k><!-- </k> <x> -- almost --><e/></k><after/></r>",
    "<r><k a=\"1>2\" b='</k>' c=\"x'y\"><e f='a\"b>c'/></k><after/></r>",
    "<r><k><?pi </k> ?><e/></k><solo x=\"v>w\"/><after/></r>",
    "<r><k><!DOCTYPE d SYSTEM \"a>b\" [<!ENTITY e 'v>w'>]><e/></k><after/></r>",
    "<r><k>&lt;&amp;&#65;<e>&quot;</e></k><after>&gt;</after></r>",
    "<r><k>t1<e>t2</e\t>t3<e />t4</k ><after/></r>",
];

/// Builds a larger-than-one-buffer document (several 64 KiB refills)
/// whose dead subtree mixes long text runs (AVX2 main-loop territory),
/// CDATA, comments and dense markup.
fn big_doc() -> String {
    let mut doc = String::from("<r><live>head</live><k>");
    let long_text = "lorem ipsum dolor sit amet consectetur adipiscing elit ".repeat(8);
    for i in 0..220 {
        doc.push_str("<item id='");
        doc.push_str(&i.to_string());
        doc.push_str("' note=\"a>b\"><name>n</name><desc>");
        doc.push_str(&long_text);
        doc.push_str("</desc><!-- dead > comment --><blob><![CDATA[tail x]]]></blob></item>");
    }
    doc.push_str("</k><after>tail</after></r>");
    doc
}

/// Renders a full token stream, optionally skipping the subtree of
/// every element named `k` via `skip_subtree`.
fn lex_tokens(doc: &[u8], chunk: usize, skip_k: bool) -> Vec<String> {
    let mut tags = TagInterner::new();
    let k = tags.intern("k");
    let reader = ChunkedReader {
        data: doc.to_vec(),
        pos: 0,
        chunk,
    };
    let mut lexer = XmlLexer::new(reader, &mut tags);
    let mut out = Vec::new();
    while let Some(t) = lexer.next_token().expect("lex") {
        let is_k_open = matches!(t, XmlToken::Open(id) if id == k);
        out.push(format!("{:?}", t));
        if skip_k && is_k_open {
            let skipped = lexer.skip_subtree().expect("skip");
            out.push(format!("skipped={skipped}"));
        }
    }
    assert!(lexer.document_done());
    out
}

/// The one test that mutates the process-wide kernel selection: drives
/// whole documents through every available kernel at several chunk
/// sizes and demands identical token streams (plain and skip mode).
/// Kept as a single #[test] so the global force never races a parallel
/// test; the `_with`-based tests above never read the global.
#[test]
fn lexer_identical_under_all_kernels() {
    let orig = scan::active_kernel();
    let big = big_doc();
    let mut docs: Vec<&[u8]> = DOCS.iter().map(|d| d.as_bytes()).collect();
    docs.push(big.as_bytes());

    // References: scalar kernel, whole-buffer reads.
    let mut reference = Vec::new();
    scan::force_kernel(ScanKernel::Scalar);
    for doc in &docs {
        reference.push((
            lex_tokens(doc, usize::MAX, false),
            lex_tokens(doc, usize::MAX, true),
        ));
    }

    for kernel in ScanKernel::available() {
        scan::force_kernel(kernel);
        assert_eq!(scan::active_kernel(), kernel);
        for (di, doc) in docs.iter().enumerate() {
            for chunk in [1usize, 2, 3, 7, 64, 4096, usize::MAX] {
                let plain = lex_tokens(doc, chunk, false);
                assert_eq!(
                    plain, reference[di].0,
                    "plain stream differs: kernel={kernel:?} doc={di} chunk={chunk}"
                );
                let skipped = lex_tokens(doc, chunk, true);
                assert_eq!(
                    skipped, reference[di].1,
                    "skip stream differs: kernel={kernel:?} doc={di} chunk={chunk}"
                );
            }
        }
    }
    scan::force_kernel(orig);
}
