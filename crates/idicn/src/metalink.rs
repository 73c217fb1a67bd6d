//! Metalink/HTTP-style content metadata carried in HTTP headers (§6.1).
//!
//! The reverse proxy attaches, to every response, the metadata a client (or
//! edge proxy) needs to verify content authenticity without trusting the
//! channel: the full and per-piece digests, the publisher's MSS root, the
//! signature binding `(name, content digest)` to the publisher, and a list
//! of mirrors. Metalink-unaware clients simply ignore the headers — the
//! backward-compatibility property the paper leans on.

use crate::chunk::ChunkedDigests;
use crate::crypto::mss::MssSignature;
use crate::crypto::sha256::digest;
use crate::crypto::{from_hex, to_hex, Digest};
use crate::http::Headers;
use crate::name::ContentName;
use crate::{Error, Result};

/// Header names (the `X-IdICN-` prefix marks the overlay's extension
/// headers; `Digest` mirrors RFC 3230 / RFC 6249 usage).
pub mod header {
    /// Full-content digest, `sha-256=<hex>`.
    pub const DIGEST: &str = "Digest";
    /// The flat `L.P` content name.
    pub const NAME: &str = "X-IdICN-Name";
    /// Piece size in bytes.
    pub const PIECE_SIZE: &str = "X-IdICN-Piece-Size";
    /// Comma-separated hex piece digests.
    pub const PIECES: &str = "X-IdICN-Pieces";
    /// Publisher's Merkle root (hex).
    pub const PUBLISHER_ROOT: &str = "X-IdICN-Publisher-Root";
    /// Hex-encoded MSS signature over the name/content binding.
    pub const SIGNATURE: &str = "X-IdICN-Signature";
    /// Mirror URL (repeatable).
    pub const MIRROR: &str = "Link";
}

/// Everything needed to verify and re-locate one content object.
#[derive(Debug, Clone)]
pub struct Metadata {
    /// The content's flat name.
    pub name: ContentName,
    /// Full and piece digests.
    pub digests: ChunkedDigests,
    /// The publisher's Merkle root (pre-image of the principal).
    pub publisher_root: Digest,
    /// MSS signature over [`ContentName::binding_bytes`].
    pub signature: MssSignature,
    /// Mirror locations (absolute URLs).
    pub mirrors: Vec<String>,
}

impl Metadata {
    /// Verifies the complete chain for `content`:
    ///
    /// 1. the principal in the name matches the publisher root
    ///    (self-certification: `P == H(root)`);
    /// 2. the signature over the name/content binding verifies against the
    ///    root;
    /// 3. the content matches the signed full digest;
    /// 4. the piece digests are consistent with the content.
    pub fn verify(&self, content: &[u8]) -> Result<()> {
        if digest(&self.publisher_root) != self.name.principal.0 {
            return Err(Error::Verification(
                "publisher root does not match the name's principal".into(),
            ));
        }
        let binding = self.name.binding_bytes(&self.digests.full);
        if !self
            .signature
            .verify(&digest(&binding), &self.publisher_root)
        {
            return Err(Error::Verification("signature does not verify".into()));
        }
        if !self.digests.verify_full(content) {
            return Err(Error::Verification("content digest mismatch".into()));
        }
        if !self.digests.verify_pieces(content) {
            return Err(Error::Verification("piece digests inconsistent".into()));
        }
        Ok(())
    }

    /// Writes the metadata into HTTP response headers.
    pub fn to_headers(&self, headers: &mut Headers) {
        headers.set(header::NAME, self.name.to_flat());
        headers.set(
            header::DIGEST,
            format!("sha-256={}", to_hex(&self.digests.full)),
        );
        headers.set(header::PIECE_SIZE, self.digests.piece_size.to_string());
        headers.set(
            header::PIECES,
            self.digests
                .pieces
                .iter()
                .map(|d| to_hex(d))
                .collect::<Vec<_>>()
                .join(","),
        );
        headers.set(header::PUBLISHER_ROOT, to_hex(&self.publisher_root));
        headers.set(header::SIGNATURE, to_hex(&self.signature.to_bytes()));
        for m in &self.mirrors {
            headers.add(header::MIRROR, format!("<{m}>; rel=duplicate"));
        }
    }

    /// Parses metadata back out of HTTP headers.
    pub fn from_headers(headers: &Headers) -> Result<Self> {
        let get = |name: &str| {
            headers
                .get(name)
                .ok_or_else(|| Error::Protocol(format!("missing header {name}")))
        };
        let name = ContentName::parse(get(header::NAME)?)
            .ok_or_else(|| Error::Protocol("bad content name".into()))?;
        let digest_v = get(header::DIGEST)?;
        let full_hex = digest_v
            .strip_prefix("sha-256=")
            .ok_or_else(|| Error::Protocol("unsupported digest algorithm".into()))?;
        let full: Digest = from_hex(full_hex)
            .and_then(|v| v.try_into().ok())
            .ok_or_else(|| Error::Protocol("bad digest hex".into()))?;
        let piece_size: usize = get(header::PIECE_SIZE)?
            .parse()
            .map_err(|_| Error::Protocol("bad piece size".into()))?;
        if piece_size == 0 {
            return Err(Error::Protocol("zero piece size".into()));
        }
        let pieces_v = get(header::PIECES)?;
        let mut pieces = Vec::new();
        if !pieces_v.is_empty() {
            for p in pieces_v.split(',') {
                let d: Digest = from_hex(p)
                    .and_then(|v| v.try_into().ok())
                    .ok_or_else(|| Error::Protocol("bad piece hex".into()))?;
                pieces.push(d);
            }
        }
        let publisher_root: Digest = from_hex(get(header::PUBLISHER_ROOT)?)
            .and_then(|v| v.try_into().ok())
            .ok_or_else(|| Error::Protocol("bad publisher root".into()))?;
        let signature = from_hex(get(header::SIGNATURE)?)
            .and_then(|b| MssSignature::from_bytes(&b))
            .ok_or_else(|| Error::Protocol("bad signature encoding".into()))?;
        let mirrors = headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(header::MIRROR))
            .filter_map(|(_, v)| {
                let v = v.trim();
                let end = v.find('>')?;
                v.strip_prefix('<').map(|s| s[..end - 1].to_string())
            })
            .collect();
        Ok(Self {
            name,
            digests: ChunkedDigests {
                full,
                piece_size,
                pieces,
            },
            publisher_root,
            signature,
            mirrors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::mss::Identity;
    use crate::name::Principal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signed_metadata(content: &[u8]) -> (Metadata, Identity) {
        let mut id = Identity::generate(&mut StdRng::seed_from_u64(3), 2);
        let principal = Principal(id.principal_digest());
        let name = ContentName::new("testobj", principal).unwrap();
        let digests = ChunkedDigests::compute(content, 64);
        let binding = name.binding_bytes(&digests.full);
        let signature = id.sign(&digest(&binding));
        (
            Metadata {
                name,
                digests,
                publisher_root: id.root(),
                signature,
                mirrors: vec!["http://127.0.0.1:9999/mirror".into()],
            },
            id,
        )
    }

    #[test]
    fn verify_accepts_authentic_content() {
        let content = b"the quick brown fox".repeat(10);
        let (meta, _) = signed_metadata(&content);
        meta.verify(&content).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_content() {
        let content = b"data".repeat(50);
        let (meta, _) = signed_metadata(&content);
        let mut bad = content.clone();
        bad[10] ^= 1;
        assert!(matches!(meta.verify(&bad), Err(Error::Verification(_))));
    }

    #[test]
    fn verify_rejects_wrong_principal() {
        let content = b"data".to_vec();
        let (mut meta, _) = signed_metadata(&content);
        // Re-point the name at a different principal.
        meta.name.principal = Principal(digest(b"someone else"));
        assert!(matches!(meta.verify(&content), Err(Error::Verification(_))));
    }

    #[test]
    fn verify_rejects_resigned_name() {
        // An attacker serving the right bytes under a different label must
        // fail (binding covers the label).
        let content = b"payload".to_vec();
        let (mut meta, _) = signed_metadata(&content);
        meta.name.label = "othername".into();
        assert!(matches!(meta.verify(&content), Err(Error::Verification(_))));
    }

    #[test]
    fn verify_rejects_inconsistent_piece_digests() {
        // The signature covers only the full digest, so the piece list
        // must be checked against the content on its own.
        let content: Vec<u8> = (0..200u8).collect(); // 4 pieces of 64
        let (meta, _) = signed_metadata(&content);
        meta.verify(&content).unwrap();

        let mut wrong = meta.clone();
        wrong.digests.pieces[2][0] ^= 1;
        let mut missing = meta.clone();
        missing.digests.pieces.pop();
        let mut extra = meta.clone();
        extra.digests.pieces.push(digest(b"extra"));
        for (what, m) in [("wrong", wrong), ("missing", missing), ("extra", extra)] {
            assert!(
                matches!(m.verify(&content), Err(Error::Verification(_))),
                "{what} piece digest accepted"
            );
        }
    }

    #[test]
    fn header_roundtrip() {
        let content = b"roundtrip content".repeat(8);
        let (meta, _) = signed_metadata(&content);
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        let parsed = Metadata::from_headers(&headers).unwrap();
        parsed.verify(&content).unwrap();
        assert_eq!(parsed.name, meta.name);
        assert_eq!(parsed.mirrors, meta.mirrors);
        assert_eq!(parsed.digests, meta.digests);
    }

    #[test]
    fn missing_headers_rejected() {
        let content = b"x".to_vec();
        let (meta, _) = signed_metadata(&content);
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        let mut stripped = Headers::new();
        for (n, v) in headers.iter() {
            if !n.eq_ignore_ascii_case(header::SIGNATURE) {
                stripped.add(n, v.to_string());
            }
        }
        assert!(Metadata::from_headers(&stripped).is_err());
    }

    #[test]
    fn empty_content_roundtrip() {
        let (meta, _) = signed_metadata(b"");
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        let parsed = Metadata::from_headers(&headers).unwrap();
        parsed.verify(b"").unwrap();
    }
}
