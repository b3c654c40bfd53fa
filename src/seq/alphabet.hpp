// Residue alphabets and character <-> code mapping.
//
// Protein uses the standard 24-letter ordering (20 amino acids + B, Z, X, *)
// shared by the BLOSUM/PAM tables. Per the paper (Fig 4), every substitution
// matrix row is padded to 32 columns so that a row is exactly one 256-bit
// load and `32*q + r` indexes the flat matrix for the gather unit; codes for
// characters that are not residues map to the alphabet's wildcard.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace swve::seq {

/// Row stride (and padded column count) of every score matrix. 32 codes fit
/// one AVX2 byte register and make `32*q + r` a shift+add.
inline constexpr int kMatrixStride = 32;
/// Matrix rows the diagonal kernel's in-register (vpermi2b) score lookup
/// stages: six segments of four rows. Every built-in alphabet fits.
inline constexpr int kShuffleCodes = 24;

enum class AlphabetKind : uint8_t { Protein, Dna };

/// Immutable mapping between residue characters and small integer codes.
class Alphabet {
 public:
  static const Alphabet& protein() noexcept;
  static const Alphabet& dna() noexcept;
  static const Alphabet& get(AlphabetKind kind) noexcept;

  AlphabetKind kind() const noexcept { return kind_; }
  /// Number of real letters (24 for protein, 16 for DNA/IUPAC).
  int size() const noexcept { return size_; }
  /// Code every unrecognized character maps to (X for protein, N for DNA).
  uint8_t wildcard() const noexcept { return wildcard_; }
  /// The letters in code order.
  std::string_view letters() const noexcept { return letters_; }

  /// Character -> code. Case-insensitive; unknown characters -> wildcard().
  uint8_t encode(char c) const noexcept {
    return to_code_[static_cast<unsigned char>(c)];
  }
  /// Code -> canonical (uppercase) character. Out-of-range -> '?'.
  char decode(uint8_t code) const noexcept {
    return code < size_ ? letters_[code] : '?';
  }

  Alphabet(const Alphabet&) = delete;
  Alphabet& operator=(const Alphabet&) = delete;

 private:
  Alphabet(AlphabetKind kind, std::string_view letters, char wildcard_char);

  AlphabetKind kind_;
  int size_;
  uint8_t wildcard_;
  std::string letters_;
  std::array<uint8_t, 256> to_code_{};
};

/// Encode a whole string; unknown characters become the wildcard.
std::string decode_string(const Alphabet& a, const uint8_t* codes, size_t n);

}  // namespace swve::seq
