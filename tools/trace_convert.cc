/**
 * @file
 * trace_convert — offline binary-trace to Chrome trace_event JSON.
 *
 * Reads a binary trace written by `warped_sim --trace-out file.bin`
 * (format: docs/TRACE_FORMAT.md) and emits the Chrome JSON the
 * simulator would have written directly with a `.json` destination —
 * byte for byte, through the same trace::writeChromeTrace renderer.
 * The golden-trace suite relies on that equivalence: capture
 * binary on the hot path, convert offline, diff against the JSON
 * goldens.
 *
 *     trace_convert IN.bin [-o OUT.json] [--label NAME] [--info]
 *
 * With no -o the JSON goes to stdout. --label overrides the process
 * label stored in the header. --info prints the header (version,
 * event count, ring-dropped count, label) instead of converting.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.hh"
#include "trace/binary.hh"
#include "trace/export.hh"

int
main(int argc, char **argv)
{
    std::string in_path, out_path, label;
    bool info = false;
    warped::cli::FlagTable t(
        "trace_convert", "IN.bin [-o OUT.json] [--label NAME] [--info]",
        "Convert a warped binary trace to Chrome trace_event JSON\n"
        "(byte-identical to warped_sim's direct JSON export).\n");
    t.positional("IN.bin", in_path, "binary trace to read");
    t.text("-o", out_path, "FILE", "write JSON here (default: stdout)");
    t.text("--label", label, "NAME", "override the header's process label");
    t.flag("--info", info, "print header summary, don't convert");
    if (const auto rc = t.parseOrUsage(argc, argv))
        return *rc;

    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_convert: cannot open %s\n",
                     in_path.c_str());
        return 1;
    }

    warped::trace::BinaryTrace bt;
    std::string err;
    if (!warped::trace::readBinaryTrace(in, bt, err)) {
        std::fprintf(stderr, "trace_convert: %s: %s\n",
                     in_path.c_str(), err.c_str());
        return 1;
    }

    if (info) {
        std::printf("%s: format v%u, %zu events, %llu ring-dropped, "
                    "label \"%s\"\n",
                    in_path.c_str(),
                    unsigned(warped::trace::kBinaryVersion),
                    bt.events.size(),
                    static_cast<unsigned long long>(bt.dropped),
                    bt.label.c_str());
        return 0;
    }

    const std::string &use_label = t.seen("--label") ? label : bt.label;
    if (out_path.empty()) {
        warped::trace::writeChromeTrace(std::cout, bt.events,
                                        use_label);
        return std::cout ? 0 : 1;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "trace_convert: cannot open %s\n",
                     out_path.c_str());
        return 1;
    }
    warped::trace::writeChromeTrace(out, bt.events, use_label);
    out.flush();
    return out ? 0 : 1;
}
