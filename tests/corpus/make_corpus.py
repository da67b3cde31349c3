#!/usr/bin/env python3
"""Deterministic generator for the fuzz regression corpus.

Each file is a malformed (or edge-case) input that once tripped — or is
designed to trip — the untrusted-side parsers: the gzip decompressor, the
tar reader, and the layer analyzer's whiteout handling. The corpus is
committed; fuzz_test replays every file on each run so the failure modes
stay covered forever. Re-running this script must reproduce the files
byte-for-byte (no timestamps, no randomness).

Usage: python3 make_corpus.py [output_dir]
"""

import gzip
import io
import os
import struct
import sys
import tarfile
import zlib


def tar_bytes(build):
    """Serialize a tar archive built by `build(tarfile.TarFile)`."""
    buf = io.BytesIO()
    # GNU format matches what docker layer tars in the wild mostly use.
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:
        build(tf)
    return buf.getvalue()


def add_file(tf, name, data=b"", mode=0o644):
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mode = mode
    info.mtime = 0
    tf.addfile(info, io.BytesIO(data))


def gzip_bytes(data):
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def truncated_gzip_member():
    """A valid member with the tail (part of payload + CRC/ISIZE) cut off."""
    whole = gzip_bytes(b"x" * 4096)
    return whole[: len(whole) // 2]


def bad_crc_gzip_member():
    """Valid deflate stream, corrupted CRC32 trailer."""
    whole = bytearray(gzip_bytes(b"docker layer bytes " * 64))
    whole[-5] ^= 0xFF  # flip a CRC byte, leave ISIZE alone
    return bytes(whole)


def torn_longname_tar():
    """A GNU long-name ('L') header whose payload is cut mid-name.

    The reader sees typeflag L promising 300 bytes of name, but the
    archive ends inside the name payload — no data blocks, no terminator.
    """
    long_name = ("deeply/" * 42 + "leaf").encode()
    whole = tar_bytes(lambda tf: add_file(tf, long_name.decode(), b"payload"))
    # The GNU long-name member is the first 512-byte header + name blocks;
    # cut inside the name payload block.
    return whole[: 512 + 100]


def zero_length_ustar_entry():
    """A ustar header block whose name field is entirely NUL.

    Structurally a 'present' header (checksum valid) describing a nameless,
    zero-size regular file — degenerate but seen from sloppy writers. The
    reader must neither crash nor loop.
    """
    header = bytearray(512)
    # mode/uid/gid/size/mtime as zero octal fields.
    header[100:108] = b"0000644\x00"
    header[108:116] = b"0000000\x00"
    header[116:124] = b"0000000\x00"
    header[124:136] = b"00000000000\x00"
    header[136:148] = b"00000000000\x00"
    header[156] = ord("0")  # typeflag: regular file
    header[257:263] = b"ustar\x00"
    header[263:265] = b"00"
    # Checksum over the header with the checksum field spaced out.
    header[148:156] = b" " * 8
    checksum = sum(header)
    header[148:156] = ("%06o" % checksum).encode() + b"\x00 "
    return bytes(header) + b"\x00" * 1024  # end-of-archive marker


def whiteout_edges_tar():
    """Every `.wh.` whiteout spelling the analyzer must take a stance on:
    a plain whiteout, an opaque-directory marker, a bare `.wh.` name, a
    whiteout of a whiteout, and a normal file that merely contains `.wh.`
    mid-name (NOT a whiteout)."""

    def build(tf):
        add_file(tf, "etc/config", b"kept")
        add_file(tf, "etc/.wh.removed", b"")
        add_file(tf, "opt/.wh..wh..opq", b"")
        add_file(tf, ".wh.", b"")
        add_file(tf, "tmp/.wh..wh.double", b"")
        add_file(tf, "srv/file.wh.inside", b"not a whiteout")

    return tar_bytes(build)


def long_name_over_cap_layer():
    """A gzip'd layer whose GNU long-name ('L') body is one byte over the
    readers' 64 KiB cap (tar::kMaxLongName): a 65536-byte name plus its
    NUL. Both tar readers must reject it as corrupt before buffering the
    name, however the layer is fed to them."""
    name = "deep/" * 13107 + "x"
    assert len(name) == 65536
    return gzip_bytes(tar_bytes(lambda tf: add_file(tf, name, b"payload")))


def gzip_member(body, payload):
    """A gzip member (no optional fields, mtime 0) around a raw DEFLATE
    body; the trailer describes `payload`."""
    return (b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + body
            + struct.pack("<II", zlib.crc32(payload) & 0xFFFFFFFF,
                          len(payload) & 0xFFFFFFFF))


def raw_deflate(chunks, level, strategy=zlib.Z_DEFAULT_STRATEGY):
    """zlib's raw DEFLATE of `chunks`, a full flush after each but the last
    (so every chunk ends a block)."""
    c = zlib.compressobj(level, zlib.DEFLATED, -15, 8, strategy)
    out = b""
    for i, chunk in enumerate(chunks):
        out += c.compress(chunk)
        out += c.flush(zlib.Z_FINISH if i == len(chunks) - 1
                       else zlib.Z_FULL_FLUSH)
    return out


class BitWriter:
    """A DEFLATE bit stream: fields least significant bit first, Huffman
    codes most significant bit first (RFC 1951 §3.1.1)."""

    def __init__(self):
        self.bits_out = []

    def bits(self, value, count):
        self.bits_out += [(value >> i) & 1 for i in range(count)]
        return self

    def code(self, value, length):
        self.bits_out += [(value >> i) & 1 for i in reversed(range(length))]
        return self

    def done(self):
        padded = self.bits_out + [0] * (-len(self.bits_out) % 8)
        return bytes(sum(bit << i for i, bit in enumerate(padded[n:n + 8]))
                     for n in range(0, len(padded), 8))


def stored_blocks_member():
    """Level 0: stored blocks, one per flushed chunk, with the empty stored
    block each full flush adds."""
    chunks = [b"stored ", b"", b"blocks " * 9, b"end"]
    return gzip_member(raw_deflate(chunks, 0), b"".join(chunks))


def fixed_huffman_member():
    """Z_FIXED: fixed-code blocks, three of them, with long matches."""
    chunks = [b"fixed huffman " * 20, b"\x00" * 600, b"tail"]
    return gzip_member(raw_deflate(chunks, 9, zlib.Z_FIXED), b"".join(chunks))


def single_distance_code_member():
    """A dynamic block whose distance tree is one 1-bit code (legal: zlib's
    one accepted incomplete code): "A", then a 3-byte match at distance 1.
    Literal/length code: end of block '0', 'A' '10', length 3 '11'."""
    lens = [0] * 259
    lens[256] = 1
    lens[ord("A")] = 2
    lens[257] = 2
    lens[258] = 1  # distance code 0
    order = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]
    w = BitWriter().bits(1, 1).bits(2, 2).bits(258 - 257, 5).bits(0, 5)
    w.bits(19 - 4, 4)
    for symbol in order:
        w.bits(4 if symbol < 16 else 0, 3)  # code lengths 0..15: 4 bits each
    for length in lens:
        w.code(length, 4)
    w.code(0b10, 2).code(0b11, 2).code(0, 1).code(0, 1)
    return gzip_member(w.done(), b"AAAA")


def distance_too_far_member():
    """A fixed-code block whose first symbol is a match: its distance
    reaches before the first byte ("invalid distance too far back")."""
    w = BitWriter().bits(1, 1).bits(1, 2).code(0b0000001, 7).code(0, 5)
    return gzip_member(w.done(), b"")


def truncated_dynamic_header_member():
    """A level-6 member cut inside its dynamic block's code lengths: a
    truncation, whatever the missing bits would have decoded to."""
    body = raw_deflate([b"dynamic header, then nothing " * 8], 6)
    return gzip_member(body[:20], b"")


def shard_run_bytes(shard_count, shard_index, entries):
    """Encode a dockmine::shard spill run (run_format.h, DMSHRUN1 v1).

    entries: list of (key, count, size, first_layer, type, multi_layer),
    sorted strictly ascending by key, keys in the declared partition.
    """
    payload = b"".join(
        struct.pack("<QQQIBBH", key, count, size, first_layer, ftype,
                    1 if multi else 0, 0)
        for key, count, size, first_layer, ftype, multi in entries
    )
    header = struct.pack(
        "<8sIIIIQ", b"DMSHRUN1", 1, shard_count, shard_index,
        zlib.crc32(payload) & 0xFFFFFFFF, len(entries)
    )
    return header + payload


def valid_shard_run():
    """A well-formed 3-entry run for shard 2 of 4 (keys' top bits = 0b10).

    fuzz_test asserts the exact fold of this run: 16 file instances over 3
    distinct contents, 3*10 + 1*0 + 12*4096 = 49182 total bytes.
    """
    base = 0x8000000000000000
    return shard_run_bytes(4, 2, [
        (base + 0x01, 3, 10, 0, 1, True),
        (base + 0x07, 1, 0, 2, 0, False),
        (base + 0x100, 12, 4096, 1, 2, True),
    ])


def truncated_shard_run():
    """The valid run cut mid-entry: the size/count check must reject it
    before the checksum is even consulted."""
    return valid_shard_run()[:-9]


def bitflipped_shard_run():
    """The valid run with one payload bit flipped (a count byte): structure
    still parses, the CRC must catch it — a damaged run can fail a merge but
    never skew one."""
    whole = bytearray(valid_shard_run())
    whole[32 + 8] ^= 0x04  # entry 0's count field
    return bytes(whole)


def wire_frame(kind, payload):
    """Encode a coordinator<->worker wire frame (core/wire.h, "DMWF"):
    magic, kind, zero flags/reserved, payload length, payload CRC32."""
    return (b"DMWF" + struct.pack("<BBHII", kind, 0, 0, len(payload),
                                  zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


def valid_wire_frame():
    """A well-formed JSON control frame (a worker heartbeat)."""
    return wire_frame(1, b'{"type":"heartbeat","worker":3,"lease":1,"obs":{}}')


def truncated_wire_frame():
    """The valid frame cut mid-payload: the reassembler must keep waiting
    for bytes (a TCP read boundary), never deliver or poison."""
    return valid_wire_frame()[:24]


def bitflipped_wire_frame():
    """The valid frame with one payload bit flipped: header parses, the
    CRC must reject it and poison the stream — a flipped frame may cost
    the connection (and its lease) but can never smuggle altered bytes."""
    whole = bytearray(valid_wire_frame())
    whole[16 + 9] ^= 0x10
    return bytes(whole)


SERVE_REQUEST = (b'{"type":"query","id":7,"q":"ecdf","name":"layers.cls",'
                 b'"quantile":0.5}')


def valid_serve_request():
    """A well-formed serve-daemon query frame (core/serve protocol): the
    richest request shape (ecdf + quantile), canonical field order so the
    round-trip dump comparison in fuzz_test is byte-exact."""
    return wire_frame(1, SERVE_REQUEST)


def truncated_serve_request():
    """The valid request cut mid-payload: the daemon's session loop must
    treat it as a read boundary and keep waiting (until slowloris)."""
    return valid_serve_request()[:30]


def bitflipped_serve_request():
    """The valid request with one payload bit flipped: CRC rejection must
    poison only that connection, never crash the daemon."""
    whole = bytearray(valid_serve_request())
    whole[16 + 20] ^= 0x08
    return bytes(whole)


def bad_document_serve_request():
    """A perfectly framed request whose JSON is valid but whose content is
    not a request (unknown selector): frame layer accepts, the total
    request parser must reject with kCorrupt — the error-response path."""
    return wire_frame(1, b'{"type":"query","id":3,"q":"drop-tables"}')


SERVE_METRICS_REQUEST = (b'{"type":"query","id":11,"q":"metrics",'
                         b'"name":"dockmine_serve_requests_total",'
                         b'"op":"rate","window_ms":60000}')


def valid_serve_metrics_request():
    """A well-formed telemetry query frame (query metrics op=rate):
    canonical field order matches request_to_json so the round-trip dump
    comparison in fuzz_test is byte-exact."""
    return wire_frame(1, SERVE_METRICS_REQUEST)


def truncated_serve_metrics_request():
    """The metrics request cut mid-payload: a read boundary, not an
    error — the session loop keeps waiting."""
    return valid_serve_metrics_request()[:40]


def bitflipped_serve_metrics_request():
    """The metrics request with one payload bit flipped: the frame CRC
    must reject it and poison only that connection."""
    whole = bytearray(valid_serve_metrics_request())
    whole[16 + 20] ^= 0x08
    return bytes(whole)


CORPUS = {
    "gzip_truncated_member.bin": truncated_gzip_member,
    "gzip_bad_crc.bin": bad_crc_gzip_member,
    "tar_torn_longname.bin": torn_longname_tar,
    "tar_zero_length_ustar.bin": zero_length_ustar_entry,
    "tar_whiteout_edges.bin": whiteout_edges_tar,
    # The whiteout tar again, as a gzip'd layer blob for the full
    # gunzip -> untar -> classify path.
    "layer_whiteout_edges.bin": lambda: gzip_bytes(whiteout_edges_tar()),
    # A layer whose long name is one byte over the readers' cap.
    "layer_long_name_over_cap.bin": long_name_over_cap_layer,
    # DEFLATE decoder edge cases, each a gzip member: stored and fixed-code
    # blocks, the legal single-code distance tree, a distance before the
    # first byte, and a dynamic header cut short.
    "deflate_stored_blocks.bin": stored_blocks_member,
    "deflate_fixed_huffman.bin": fixed_huffman_member,
    "deflate_single_distance_code.bin": single_distance_code_member,
    "deflate_distance_too_far.bin": distance_too_far_member,
    "deflate_truncated_dynamic_header.bin": truncated_dynamic_header_member,
    # Shard spill runs (dockmine::shard run_format): one good, two damaged.
    "shard_run_valid.bin": valid_shard_run,
    "shard_run_truncated.bin": truncated_shard_run,
    "shard_run_bitflip.bin": bitflipped_shard_run,
    # Coordinator<->worker wire frames (core/wire): good, torn, damaged.
    "wire_frame_valid.bin": valid_wire_frame,
    "wire_frame_truncated.bin": truncated_wire_frame,
    "wire_frame_bitflip.bin": bitflipped_wire_frame,
    # Serve-daemon request frames (core/serve): good, torn, damaged, and a
    # well-framed non-request.
    "serve_request_valid.bin": valid_serve_request,
    "serve_request_truncated.bin": truncated_serve_request,
    "serve_request_bitflip.bin": bitflipped_serve_request,
    "serve_request_bad_doc.bin": bad_document_serve_request,
    # Telemetry query frames (query metrics): good, torn, damaged.
    "serve_request_metrics_valid.bin": valid_serve_metrics_request,
    "serve_request_metrics_truncated.bin": truncated_serve_metrics_request,
    "serve_request_metrics_bitflip.bin": bitflipped_serve_metrics_request,
}


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)
    for name, gen in sorted(CORPUS.items()):
        data = gen()
        path = os.path.join(out_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
