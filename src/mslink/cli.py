"""Command line front end.

Subcommands: ber-sweep, compare, transmit, receive, gamma-curve,
constellation, sync-check.  A `key = value` config file provides defaults;
command line flags override it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .channel import apply_channel
from .config import experiment_from_dict, gamma_lut_from_dict, parse_config
from .errors import SyncNotFoundError
from .harness import (_channel, compare_architectures, receive_file,
                      run_ber_sweep, run_frame, transmit_file, transmit_frame,
                      write_ber_csv)
from .rxchain import dump_symbols_csv, frame_sync
from .txchain import build_sync_sequence


def _common_flags(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int, help="base random seed")
    p.add_argument("--snr", help="comma-separated SNR list in dB")
    p.add_argument("--frames", type=int, help="frames per SNR point")
    p.add_argument("--mode", choices=["conventional", "metasurface"])
    p.add_argument("--mask", help="full | left-half | right-half | bitstring")


def _load(args) -> dict:
    return parse_config(args.config) if args.config else {}


def _experiment(args):
    return experiment_from_dict(
        _load(args),
        base_seed=args.seed,
        snr_list=args.snr,
        frames_per_point=args.frames,
        mode=args.mode,
        mask=args.mask,
    )


def cmd_ber_sweep(args) -> int:
    cfg = _experiment(args)
    records = run_ber_sweep(cfg)
    for r in records:
        flag = f"  sync_failures={r.sync_failures}" if r.sync_failures else ""
        print(f"snr={r.snr_db:6.2f} dB  bits={r.bits_simulated}  "
              f"errors={r.bit_errors}  ber={r.ber:.3e}{flag}")
    write_ber_csv(records, args.out or "ber.csv")
    return 0


def cmd_compare(args) -> int:
    base = _load(args)
    cfg_conv = experiment_from_dict(base, mode="conventional",
                                    base_seed=args.seed, snr_list=args.snr,
                                    frames_per_point=args.frames)
    cfg_meta = experiment_from_dict(base, mode="metasurface",
                                    base_seed=args.seed, snr_list=args.snr,
                                    frames_per_point=args.frames,
                                    mask=args.mask)
    target = float(base.get("target_ber", 1e-4))
    rec_a, rec_b, gap = compare_architectures(cfg_conv, cfg_meta, target)
    stem = args.out or "compare"
    write_ber_csv(rec_a, f"{stem}_conventional.csv")
    write_ber_csv(rec_b, f"{stem}_metasurface.csv")
    print(f"gap at BER {target:g}: {gap:.2f} dB "
          f"(metasurface needs {gap:+.2f} dB vs conventional)")
    return 0


def cmd_transmit(args) -> int:
    cfg = _experiment(args)
    out = args.out or (args.input + ".iq")
    header = transmit_file(args.input, cfg, out, out + ".hdr")
    print(f"wrote {out} ({header.frames} frames, pad_bits={header.pad_bits})")
    return 0


def cmd_receive(args) -> int:
    out = args.out or (args.input + ".out")
    n = receive_file(args.input, args.header or args.input + ".hdr", out)
    print(f"recovered {n} bytes -> {out}")
    return 0


def cmd_gamma_curve(args) -> int:
    lut = gamma_lut_from_dict(_load(args))
    out = args.out or "gamma_curve.csv"
    lut.to_csv(out)
    print(f"wrote {out}: {lut.voltages.size} points, "
          f"phase span {lut.phase_span_deg():.1f} deg")
    return 0


def cmd_constellation(args) -> int:
    cfg = _experiment(args)
    snr = cfg.snr_list[0]
    _, bits, diag = run_frame(cfg, snr, cfg.base_seed)
    if bits is None:
        print("sync failed; no symbols to dump", file=sys.stderr)
        return 1
    out = args.out or "constellation.csv"
    dump_symbols_csv(diag.equalized_symbols, out)
    print(f"wrote {out}: EVM {diag.evm_percent:.2f}%  "
          f"SNR est {diag.snr_estimate_db:.2f} dB")
    return 0


def cmd_sync_check(args) -> int:
    cfg = _experiment(args)
    snr = cfg.snr_list[0]
    trials = cfg.frames_per_point
    sps = cfg.resolved_sps()
    hits = 0
    rng = np.random.default_rng(cfg.base_seed)
    _, sig = transmit_frame(cfg, rng)  # the offsets below continue rng
    window = (0, cfg.timing_offset + 1200 * sps)
    for t in range(trials):
        offset = cfg.timing_offset + int(rng.integers(0, 1000))
        ch = replace(_channel(cfg, snr, cfg.base_seed + t),
                     timing_offset=offset)
        rx = apply_channel(sig, ch)
        try:
            res = frame_sync(rx, build_sync_sequence(), window)
            hits += res.frame_start == offset
        except SyncNotFoundError:
            pass
    print(f"sync detection: {hits}/{trials} exact "
          f"({100.0 * hits / trials:.1f}%) at snr={snr} dB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mslink",
        description="Metasurface QPSK link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("ber-sweep", cmd_ber_sweep, "Monte-Carlo BER sweep"),
        ("compare", cmd_compare, "conventional vs metasurface BER curves"),
        ("transmit", cmd_transmit, "frame a file into an IQ stream"),
        ("receive", cmd_receive, "recover a file from an IQ stream"),
        ("gamma-curve", cmd_gamma_curve, "voltage -> reflection table CSV"),
        ("constellation", cmd_constellation, "equalized-symbol dump"),
        ("sync-check", cmd_sync_check, "frame-sync detection statistics"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        if name in ("transmit", "receive"):
            p.add_argument("input", help="input file path")
        if name == "receive":
            p.add_argument("--header", help="stream header path")
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
