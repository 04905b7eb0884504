"""Command line front end.

Subcommands: ber-sweep, compare, transmit, receive, gamma-curve,
constellation, sync-check.  Each takes only the flags it reads (SUBCOMMANDS
lists them), so a flag it would ignore is a usage error.  A `key = value`
config file (`--config`) provides defaults; flags override it.  `receive`
takes no config: the stream header says all it needs.

A usage error exits with status 2.  Bad input that gets past the parser (a
config value, a missing file, an undecodable stream, a BER curve that
misses its target) is one `mslink: error: <message>` line on stderr and
exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from dataclasses import replace

import numpy as np

from .channel import apply_channel
from .config import experiment_from_dict, gamma_lut_from_dict, parse_config
from .errors import (InfeasibleError, InterpolationError, PartialReceiveError,
                     SyncNotFoundError)
from .harness import (DEFAULT_TARGET_BER, _channel, receive_file,
                      run_ber_sweep, run_frame, snr_gap, transmit_file,
                      transmit_frame, write_ber_csv)
from .iqfile import in_file
from .rxchain import frame_sync

# every flag, declared once; a subcommand adds the ones it names (and
# ONE_SNR below)
FLAGS = {
    "--config": dict(help="key = value config file"),
    "--out": dict(help="output path"),
    "--seed": dict(type=int, help="base random seed"),
    "--snr": dict(help="comma-separated SNR list in dB"),
    "--frames": dict(type=int, help="frames per SNR point"),
    "--mode": dict(choices=["conventional", "metasurface"]),
    "--mask": dict(help="full | left-half | right-half | bitstring"),
    "--header": dict(help="stream header path"),
    "input": dict(help="input file path"),
}


def _one_snr(text):
    """--snr of a command that runs at one SNR: one value, as snr_list."""
    try:
        return (float(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"takes one SNR in dB, not {text!r}") from None


# the --snr of constellation and sync-check, which run at one SNR: the
# default grid's first point when it is not given
ONE_SNR = dict(type=_one_snr, help="SNR in dB")

# the ExperimentConfig field each experiment flag sets
_FIELDS = {"seed": "base_seed", "snr": "snr_list",
           "frames": "frames_per_point", "mode": "mode", "mask": "mask"}


def _load(args) -> dict:
    return parse_config(args.config) if args.config else {}


def _experiment(args, base, **fixed):
    """The experiment of the config text `base` under the subcommand's
    flags; `fixed` sets fields the subcommand gives no flag for."""
    flags = {name: getattr(args, flag, None) for flag, name in _FIELDS.items()}
    return experiment_from_dict(base, **{**flags, **fixed})


def cmd_ber_sweep(args) -> int:
    cfg = _experiment(args, _load(args))
    records = run_ber_sweep(cfg)
    for r in records:
        flag = f"  sync_failures={r.sync_failures}" if r.sync_failures else ""
        print(f"snr={r.snr_db:6.2f} dB  bits={r.bits_simulated}  "
              f"errors={r.bit_errors}  ber={r.ber:.3e}{flag}")
    write_ber_csv(records, args.out or "ber.csv")
    return 0


def cmd_compare(args) -> int:
    base = _load(args)
    if "mode" in base:   # each curve sets its own, as --mode is refused
        raise in_file(ValueError("mode is not read by compare, which runs "
                                 "both modes"), base)
    # both configs are built, and so checked, before any frame runs
    cfgs = [_experiment(args, base, mode=mode)
            for mode in ("conventional", "metasurface")]
    target = base.get("target_ber", DEFAULT_TARGET_BER)
    stem = args.out or "compare"
    curves = []
    for cfg in cfgs:
        records = run_ber_sweep(cfg)
        write_ber_csv(records, f"{stem}_{cfg.mode}.csv")
        curves.append((cfg.mode, records))
    # read after both curves are written: one that misses the target is kept
    gap, conv, meta = snr_gap(curves, target)
    print(f"gap at BER {target:g}: {gap:.2f} dB "
          f"(conventional {conv:.2f} dB, metasurface {meta:.2f} dB)")
    return 0


def cmd_transmit(args) -> int:
    cfg = _experiment(args, _load(args))
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
    base = _load(args)
    # every key is checked, not only the table's, but not whether the target
    # phases fit the cell's travel: the curve is how one sees that they do not
    with suppress(InfeasibleError):
        _experiment(args, base)
    lut = gamma_lut_from_dict(base)
    out = args.out or "gamma_curve.csv"
    lut.to_csv(out)
    print(f"wrote {out}: {lut.voltages.size} points, "
          f"phase span {lut.phase_span_deg():.1f} deg")
    return 0


def cmd_constellation(args) -> int:
    cfg = _experiment(args, _load(args))
    snr = cfg.snr_list[0]
    _, bits, diag = run_frame(cfg, snr, cfg.base_seed)
    if bits is None:
        print("frame not decodable (no sync, or a zero bin in the channel "
              "estimate); no symbols to dump", file=sys.stderr)
        return 1
    out = args.out or "constellation.csv"
    with open(out, "w") as fh:   # read by external constellation plotting
        fh.write("re,im\n")
        for s in diag.equalized_symbols:
            fh.write(f"{s.real!r},{s.imag!r}\n")
    print(f"wrote {out}: EVM {diag.evm_percent:.2f}%  SNR est "
          f"{diag.snr_estimate_db:.2f} dB  sync_margin {diag.sync_margin:.2f}"
          f"  min |h| {np.abs(diag.channel_estimate).min():.3g}")
    return 0


def cmd_sync_check(args) -> int:
    cfg = _experiment(args, _load(args))
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
            res = frame_sync(rx, window)
            hits += res.frame_start == offset
        except SyncNotFoundError:
            pass
    print(f"sync detection: {hits}/{trials} exact "
          f"({100.0 * hits / trials:.1f}%) at snr={snr} dB")
    return 0


# name -> (handler, help, the flags it reads: a name in FLAGS, or a name
# and its own spec)
SUBCOMMANDS = {
    "ber-sweep": (cmd_ber_sweep, "Monte-Carlo BER sweep",
                  ("--config", "--out", "--seed", "--snr", "--frames",
                   "--mode", "--mask")),
    "compare": (cmd_compare, "conventional vs metasurface BER curves",
                ("--config", "--out", "--seed", "--snr", "--frames",
                 "--mask")),
    "transmit": (cmd_transmit, "frame a file into an IQ stream",
                 ("--config", "--out", "--mode", "--mask", "input")),
    "receive": (cmd_receive, "recover a file from an IQ stream",
                ("--out", "--header", "input")),
    "gamma-curve": (cmd_gamma_curve, "voltage -> reflection table CSV",
                    ("--config", "--out")),
    "constellation": (cmd_constellation, "equalized-symbol dump",
                      ("--config", "--out", "--seed", ("--snr", ONE_SNR),
                       "--mode", "--mask")),
    "sync-check": (cmd_sync_check, "frame-sync detection statistics",
                   ("--config", "--seed", ("--snr", ONE_SNR), "--frames",
                    "--mode", "--mask")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mslink",
        description="Metasurface QPSK link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (fn, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            flag, spec = flag if isinstance(flag, tuple) else (flag,
                                                               FLAGS[flag])
            p.add_argument(flag, **spec)
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, InterpolationError,
            PartialReceiveError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
