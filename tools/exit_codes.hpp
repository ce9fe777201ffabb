// Process exit codes shared by the rmpc and rmpd front ends, mapping the
// typed error taxonomies (io::ContainerError, compress::CodecError,
// core::PreconditionError, net::NetError / RemoteError) onto distinct,
// documented codes so shell scripts and CI can dispatch on *what* failed
// without parsing stderr.
// The table is documented in README.md ("Exit codes") and locked down by
// tests/test_cli.cpp.
#pragma once

#include <exception>
#include <stdexcept>

#include "compress/codec_error.hpp"
#include "core/precond_error.hpp"
#include "io/container_error.hpp"
#include "net/client.hpp"
#include "net/net_error.hpp"

namespace rmp::tools {

inline constexpr int kExitOk = 0;
/// Unexpected internal failure (uncategorized exception).
inline constexpr int kExitInternal = 1;
/// Usage error: bad flags, malformed values, missing arguments.
inline constexpr int kExitUsage = 2;
/// I/O failure: unreadable input, failed write, disk error.
inline constexpr int kExitIo = 3;
/// Integrity failure: damaged or unrecoverable archive bytes.
inline constexpr int kExitIntegrity = 4;
/// Model failure: preconditioner could not run (eigen/SVD breakdown...).
inline constexpr int kExitModel = 5;
/// The request's wall-clock deadline ran out.
inline constexpr int kExitDeadline = 6;
/// Server busy or unreachable -- retry soon (honor any retry-after hint).
inline constexpr int kExitUnavailable = 7;
/// Wire-protocol violation (bad frames, version mismatch, torn stream).
inline constexpr int kExitProtocol = 8;
/// Server is draining for shutdown: not coming back on this incarnation,
/// so "wait for the restart" is the right script reaction, distinct
/// from the transient BUSY backpressure of kExitUnavailable.
inline constexpr int kExitShuttingDown = 9;

inline int exit_code_for_status(net::Status status) noexcept {
  switch (status) {
    case net::Status::kOk: return kExitOk;
    case net::Status::kBusy: return kExitUnavailable;
    case net::Status::kShuttingDown: return kExitShuttingDown;
    case net::Status::kDeadlineExceeded: return kExitDeadline;
    case net::Status::kBadRequest: return kExitUsage;
    case net::Status::kIntegrityError: return kExitIntegrity;
    case net::Status::kPreconditionError: return kExitModel;
    case net::Status::kIoError: return kExitIo;
    case net::Status::kInternalError: return kExitInternal;
  }
  return kExitInternal;
}

/// The one mapping from a caught exception to the table above.
inline int exit_code_for(const std::exception& error) noexcept {
  if (const auto* remote = dynamic_cast<const net::RemoteError*>(&error))
    return exit_code_for_status(remote->status());
  if (const auto* net_error = dynamic_cast<const net::NetError*>(&error)) {
    switch (net_error->code()) {
      case net::NetErrc::kBusy: return kExitUnavailable;
      case net::NetErrc::kShuttingDown: return kExitShuttingDown;
      case net::NetErrc::kDeadlineExceeded: return kExitDeadline;
      case net::NetErrc::kIoError: return kExitIo;
      default: return kExitProtocol;
    }
  }
  if (const auto* container =
          dynamic_cast<const io::ContainerError*>(&error)) {
    switch (container->code()) {
      case io::ContainerErrc::kIoError: return kExitIo;
      case io::ContainerErrc::kDeadlineExceeded: return kExitDeadline;
      default: return kExitIntegrity;
    }
  }
  // A codec stream that does not parse is damaged archive bytes.
  if (dynamic_cast<const compress::CodecError*>(&error) != nullptr)
    return kExitIntegrity;
  if (dynamic_cast<const core::PreconditionError*>(&error) != nullptr)
    return kExitModel;
  if (dynamic_cast<const std::invalid_argument*>(&error) != nullptr)
    return kExitUsage;
  return kExitInternal;
}

}  // namespace rmp::tools
