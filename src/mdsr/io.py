"""File access and spectrum CSV I/O: `read_text` and `write_text` are the
package's only file access; spectrum CSVs are `detuning_mhz,transmission`,
LF endings, 17 significant digits."""

from __future__ import annotations

import math
import os
import stat

import numpy as np

from .spectrum import Spectrum

HEADER = "detuning_mhz,transmission"


class SpectrumFormatError(ValueError):
    pass


FLOAT_FORMAT = ".17g"


def format_float(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def read_text(path, error) -> str:
    """Read `path` as UTF-8, dropping a leading byte-order mark; else raise `error("<path>: ...")`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 with LF endings, overwriting in place.

    The file is opened without O_TRUNC, written over its old bytes and then
    cut to the new length. Truncating on open frees the file's data blocks;
    on a 2-vCPU VM whose ext4 root is mounted with `discard`, freeing blocks
    that had reached the disk took 45-90 ms per call and writing over them
    under 0.1 ms. ext4's default `auto_da_alloc` writes a file truncated on
    open out on close, so with `open(path, "w")` every rewrite of an existing
    output paid that cost. A rewrite that shrinks the file by a block or more
    still frees the blocks past the new end.

    Symlinks are followed and an existing file keeps its inode and
    permissions. Only a regular file is truncated, so devices and FIFOs such
    as /dev/null still work. Nothing is fsynced. Since the old bytes are not
    discarded first, a crash before the kernel writes the new data out, or a
    kill between the write and the truncate, can leave the old contents or a
    page-wise mix of old and new bytes, and a reader that opens the file
    during the write can see new bytes followed by old ones. Outputs are
    regenerated by rerunning the command that wrote them.
    """
    # O_BINARY exists on Windows only; without it the descriptor would turn LF into CRLF
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_spectrum(spectrum: Spectrum, path) -> None:
    # formatting the Python floats of .tolist() gives format_float's bytes
    # without a float() call and a numpy scalar per value
    rows = [f"{d:{FLOAT_FORMAT}},{t:{FLOAT_FORMAT}}\n" for d, t in
            zip(spectrum.detunings.tolist(), spectrum.transmission.tolist())]
    write_text(path, HEADER + "\n" + "".join(rows))


def read_spectrum(path) -> Spectrum:
    lines = read_text(path, SpectrumFormatError).splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise SpectrumFormatError(f"missing header {HEADER!r}")
    detunings, transmission = [], []
    for row_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SpectrumFormatError(f"row {row_number}: expected 2 fields, got {len(parts)}")
        try:
            d, t = float(parts[0]), float(parts[1])
        except ValueError:
            raise SpectrumFormatError(f"row {row_number}: malformed number") from None
        if not math.isfinite(d):
            raise SpectrumFormatError(f"row {row_number}: detuning {d} is not finite")
        if not 0.0 <= t <= 1.0:
            raise SpectrumFormatError(f"row {row_number}: transmission {t} outside [0, 1]")
        if detunings and not d > detunings[-1]:
            raise SpectrumFormatError(f"row {row_number}: detunings are not strictly increasing "
                                      f"({d} after {detunings[-1]})")
        detunings.append(d)
        transmission.append(t)
    return Spectrum(np.array(detunings), np.array(transmission))
