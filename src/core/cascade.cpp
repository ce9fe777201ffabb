#include "core/cascade.hpp"

#include <stdexcept>

#include "compress/codec_error.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

// Delta codec for stage 1 that stores *nothing* (just the element count):
// stage 1 contributes only its reduced representation, and stage 2
// preconditions the full residual.  It decodes a count of at most `cells`,
// the stage-1 field's, and rejects a larger one before allocating: a
// nested-layout blocked stage 1 holds one null delta per row block, and
// decode_delta checks each count against its own block.
class NullCodec final : public compress::Compressor {
 public:
  explicit NullCodec(std::size_t cells) : cells_(cells) {}

  std::string name() const override { return "null"; }
  bool lossless() const override { return false; }

  std::vector<std::uint8_t> compress(std::span<const double> data,
                                     const compress::Dims& dims) const override {
    if (data.size() != dims.count()) {
      throw std::invalid_argument("NullCodec: size mismatch");
    }
    std::vector<std::uint8_t> bytes;
    put(bytes, std::uint64_t{data.size()});
    return bytes;
  }

  std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const override {
    compress::StreamReader in(stream, {"null"});
    const auto count = in.read<std::uint64_t>("count");
    in.finish("count");
    if (count > cells_) {
      in.fail(compress::CodecErrc::kCountOverflow,
              "count " + std::to_string(count) + " exceeds the stage's " +
                  std::to_string(cells_) + " cells");
    }
    return std::vector<double>(count, 0.0);
  }

 private:
  std::size_t cells_;
};

}  // namespace

CascadePreconditioner::CascadePreconditioner(const std::string& first,
                                             const std::string& second)
    : first_name_(first),
      second_name_(second),
      first_(make_preconditioner(first)),
      second_(make_preconditioner(second)) {
  if (first.find('>') != std::string::npos ||
      second.find('>') != std::string::npos) {
    throw std::invalid_argument("cascade: stages cannot themselves nest");
  }
}

io::Container CascadePreconditioner::encode(const sim::Field& field,
                                            const CodecPair& codecs,
                                            EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/cascade");
  // Stage 1 stores only its reduced representation: its delta codec is a
  // null codec (stores the count, decodes zeros), so decoding stage 1
  // yields the pure reduced-model reconstruction.  Stage 2 then
  // preconditions the full residual with the real codecs.
  const NullCodec null_delta(field.size());
  const CodecPair first_codecs{codecs.reduced, &null_delta};
  EncodeStats first_stats;
  io::Container first_container =
      first_->encode(field, first_codecs, &first_stats);
  const sim::Field first_decoded =
      first_->decode(first_container, first_codecs, nullptr);
  const sim::Field residual = subtract(field, first_decoded);

  EncodeStats second_stats;
  const io::Container second_container =
      second_->encode(residual, codecs, &second_stats);

  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  container.add("stage1", io::serialize(first_container));
  container.add("stage2", io::serialize(second_container));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->reduced_bytes = first_stats.reduced_bytes + second_stats.reduced_bytes;
    stats->delta_bytes = first_stats.delta_bytes + second_stats.delta_bytes;
  }
  return container;
}

sim::Field CascadePreconditioner::decode(const io::Container& container,
                                         const CodecPair& codecs,
                                         const sim::Field*) const {
  const obs::ScopedSpan span("cascade");
  const auto& stage1 = require_section(container, "stage1", "cascade");
  const auto& stage2 = require_section(container, "stage2", "cascade");
  const io::Container first_container = io::deserialize(stage1.bytes);
  const NullCodec null_delta(compress::checked_cells(
      {first_container.nx, first_container.ny, first_container.nz}, "null"));
  const CodecPair first_codecs{codecs.reduced, &null_delta};
  // The two stage decodes share no state, so they run as two pool tasks
  // (each stage may fan out further; nested calls run inline).
  sim::Field first_decoded, residual;
  parallel::parallel_for(2, [&](std::size_t stage) {
    if (stage == 0) {
      first_decoded = first_->decode(first_container, first_codecs, nullptr);
    } else {
      residual = second_->decode(io::deserialize(stage2.bytes), codecs, nullptr);
    }
  });
  return add(first_decoded, residual);
}

std::unique_ptr<Preconditioner> make_cascade(const std::string& spec) {
  const auto split = spec.find('>');
  if (split == std::string::npos || split == 0 || split + 1 == spec.size()) {
    throw std::invalid_argument("make_cascade: want \"first>second\", got " +
                                spec);
  }
  return std::make_unique<CascadePreconditioner>(spec.substr(0, split),
                                                 spec.substr(split + 1));
}

}  // namespace rmp::core
