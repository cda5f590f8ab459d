"""Detached page signatures and the signer key store.

A signed page carries a trailing HTML comment:

    <!-- LW-SIG v1 <signer-id> <base64-signature> -->

The signature covers a SHA-256 digest of every byte before the trailer
plus the signer id, so altering any byte of the page, the claimed identity,
or the trailer itself breaks verification. Verification is total: anything
that fails to parse or verify folds to the `unknown` signer, which the
policy registry maps to the untrusted default. `cryptography` and `hashlib`
load on first use, so a process that meets no signed page never loads them.
"""

from __future__ import annotations

import base64
import re
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from .syntax import read_text

UNKNOWN_SIGNER = "unknown"
SIGNED_SUFFIX = ".lwpgp.html"

_MARKER = "<!-- LW-SIG v1 "
_TRAILER_RE = re.compile(
    r"<!-- LW-SIG v1 (?P<signer>.+) (?P<sig>[A-Za-z0-9+/=]+) -->\n\Z",
    re.DOTALL)


class SignatureError(Exception):
    pass


class SignedPage(NamedTuple):
    html: str           # exactly the bytes that were digested
    signer: str         # claimed identity from the trailer
    signature: bytes


def is_signed(url: str) -> bool:
    """Signed pages are recognised by their path extension; query strings
    and fragments do not count."""
    return urlsplit(url).path.endswith(SIGNED_SUFFIX)


def split_signed(contents: str) -> SignedPage:
    idx = contents.rfind(_MARKER)
    if idx < 0:
        raise SignatureError("no signature trailer")
    m = _TRAILER_RE.match(contents, idx)
    if m is None:
        raise SignatureError("malformed signature trailer")
    try:
        sig = base64.b64decode(m.group("sig"), validate=True)
    except Exception as exc:
        raise SignatureError(f"bad signature encoding: {exc}") from exc
    # Base64 leaves unused bits in its final group; require the canonical
    # spelling so a one-character change can't decode to the same signature.
    if base64.b64encode(sig).decode("ascii") != m.group("sig"):
        raise SignatureError("non-canonical signature encoding")
    return SignedPage(contents[:idx], m.group("signer"), sig)


def page_digest(html: str, signer: str) -> bytes:
    import hashlib
    h = hashlib.sha256()
    h.update(html.encode("utf-8"))
    h.update(b"\x00")
    h.update(signer.encode("utf-8"))
    return h.digest()


class KeyStore:
    """Signer public keys, one `<signer-id> <base64-key>` per line on disk.
    Signer ids may contain spaces; the key is the last field."""

    def __init__(self, keys: dict[str, bytes] | None = None):
        self.keys: dict[str, bytes] = keys or {}

    def add(self, signer: str, public_key: bytes) -> None:
        self.keys[signer] = public_key

    @classmethod
    def load(cls, path: str | Path) -> "KeyStore":
        ks = cls()
        text = read_text(path)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            signer, _, key_b64 = line.rpartition(" ")
            if not signer:
                raise SignatureError(f"bad key store line {lineno}: {raw!r}")
            try:
                ks.add(signer, base64.b64decode(key_b64, validate=True))
            except Exception as exc:
                raise SignatureError(f"bad key on line {lineno}: {exc}") from exc
        return ks

    def save(self, path: str | Path) -> None:
        lines = [f"{signer} {base64.b64encode(key).decode()}"
                 for signer, key in self.keys.items()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_keypair() -> tuple[bytes, bytes]:
    """(private, public) raw Ed25519 key bytes."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from cryptography.hazmat.primitives.serialization import (
        Encoding, NoEncryption, PrivateFormat, PublicFormat)
    priv = Ed25519PrivateKey.generate()
    pub = priv.public_key()
    return (priv.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption()),
            pub.public_bytes(Encoding.Raw, PublicFormat.Raw))


def sign_page(html: str, private_key: bytes, signer: str) -> str:
    """Append a signature trailer; the digest covers `html` byte-exactly,
    together with the signer id."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    key = Ed25519PrivateKey.from_private_bytes(private_key)
    sig = key.sign(page_digest(html, signer))
    return f"{html}{_MARKER}{signer} {base64.b64encode(sig).decode()} -->\n"


def _verifies(public_key: bytes, signature: bytes, digest: bytes) -> bool:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError):
        return False


def authenticate(contents: str, keystore: KeyStore) -> str:
    """Claimed signer id if their key verifies the trailer, else `unknown`.
    Never raises."""
    try:
        page = split_signed(contents)
    except SignatureError:
        return UNKNOWN_SIGNER
    claimed = keystore.keys.get(page.signer)
    if claimed is not None and _verifies(claimed, page.signature,
                                         page_digest(page.html, page.signer)):
        return page.signer
    return UNKNOWN_SIGNER


def save_private_key(path: str | Path, private_key: bytes) -> None:
    Path(path).write_text(base64.b64encode(private_key).decode() + "\n",
                          encoding="utf-8")


def load_private_key(path: str | Path) -> bytes:
    return base64.b64decode(read_text(path).strip())
