// rmpd -- the fault-tolerant concurrent compression daemon (DESIGN.md
// §11).  Serves encode/decode/verify/stats requests over the
// length-prefixed binary protocol, with bounded-queue admission control,
// end-to-end deadlines and a graceful SIGTERM drain.
//
// `rmpd --help` prints the flags, generated from the daemon flag table in
// tools/flags.hpp that `rmpc serve` shares.  With --port 0 (the default)
// an ephemeral port is chosen; harnesses pass --port-file to learn it.
// SIGTERM/SIGINT trigger the drain: stop accepting, finish every admitted
// request, publish journaled sequences durably, exit 0.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "exit_codes.hpp"
#include "flags.hpp"

namespace {

void usage(std::FILE* out, const std::vector<rmp::tools::Flag>& flags) {
  std::string text = "usage: rmpd";
  for (const auto& flag : flags) rmp::tools::append_usage(text, flag, 12);
  std::fprintf(out, "%s\n", text.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  rmp::net::ServerOptions options;
  std::optional<std::filesystem::path> port_file;
  const auto flags = rmp::tools::server_flags(options, port_file);
  if (args.size() == 1 && (args[0] == "--help" || args[0] == "-h")) {
    usage(stdout, flags);
    return rmp::tools::kExitOk;
  }
  if (const auto error = rmp::tools::parse_flags(args, flags, nullptr)) {
    std::fprintf(stderr, "rmpd: %s\n", error->c_str());
    usage(stderr, flags);
    return rmp::tools::kExitUsage;
  }
  try {
    return rmp::net::run_daemon(options, port_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmpd: %s\n", e.what());
    return rmp::tools::exit_code_for(e);
  }
}
