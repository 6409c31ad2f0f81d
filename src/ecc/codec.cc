#include "ecc/codec.h"

#include <string_view>

#include "common/logging.h"
#include "common/parse.h"
#include "ecc/hamming_sec.h"
#include "ecc/hsiao.h"

namespace safemem {

void
EccCodec::requireByteChecks() const
{
    if (checkBits() > 8)
        panic("EccCodec: '", name(), "' has ", checkBits(),
              " check bits; batched calls carry one check byte per group");
}

void
EccCodec::encodeWords(const std::uint64_t *words, std::uint8_t *checks,
                      std::size_t n) const
{
    requireByteChecks();
    for (std::size_t i = 0; i < n; ++i)
        checks[i] = static_cast<std::uint8_t>(encode(words[i]));
}

std::size_t
EccCodec::firstUnclean(const std::uint64_t *words,
                       const std::uint8_t *checks, std::size_t n) const
{
    requireByteChecks();
    for (std::size_t i = 0; i < n; ++i)
        if (decode(words[i], checks[i]).status != EccDecodeStatus::Ok)
            return i;
    return n;
}

std::unique_ptr<EccCodec>
makeCodec(const EccCodecSpec &spec)
{
    switch (spec.kind) {
      case EccCodecKind::Hsiao:
        return std::make_unique<HsiaoCode>(spec.dataBits, spec.checkBits);
      case EccCodecKind::Hamming64_8:
        return std::make_unique<HammingSecCode>();
    }
    panic("makeCodec: unknown codec kind ",
          static_cast<int>(spec.kind));
}

const EccCodec &
defaultCodec()
{
    static const HsiaoCode codec;
    return codec;
}

std::optional<EccCodecSpec>
parseCodecSpec(const std::string &name)
{
    EccCodecSpec spec;
    if (name == "hsiao" || name == "hsiao-72-64") {
        return spec;
    }
    if (name == "hamming64/8" || name == "hamming-64-8" ||
        name == "hamming") {
        spec.kind = EccCodecKind::Hamming64_8;
        return spec;
    }
    if (name.rfind("hsiao:", 0) != 0)
        return std::nullopt;

    // "hsiao:<d>" or "hsiao:<d>/<k>" — dimensions validated here only
    // for shape; the construction itself rejects impossible geometries.
    std::string_view dims = std::string_view(name).substr(6);
    std::size_t slash = dims.find('/');
    std::optional<std::uint64_t> data = parseCount(dims.substr(0, slash), 64);
    std::optional<std::uint64_t> check = std::uint64_t{0}; // auto-size
    if (slash != std::string_view::npos)
        check = parseCount(dims.substr(slash + 1), 64);
    if (!data || *data < 1 || !check)
        return std::nullopt;
    spec.dataBits = static_cast<int>(*data);
    spec.checkBits = static_cast<int>(*check);
    return spec;
}

std::string
codecSpecName(const EccCodecSpec &spec)
{
    switch (spec.kind) {
      case EccCodecKind::Hsiao:
        if (spec.checkBits == 0 && spec.dataBits == 64)
            return "hsiao";
        if (spec.checkBits == 0)
            return "hsiao:" + std::to_string(spec.dataBits);
        return "hsiao:" + std::to_string(spec.dataBits) + "/" +
               std::to_string(spec.checkBits);
      case EccCodecKind::Hamming64_8:
        return "hamming64/8";
    }
    return "?";
}

} // namespace safemem
