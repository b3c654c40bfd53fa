// ServiceStatus — the one status vocabulary of the service boundary.
//
// In process, a failed request carries a core::ConfigError inside the
// completion's core::ErrorOr. A wire protocol needs one numerically stable
// story: every outcome a client can observe is a ServiceStatus, its uint8_t
// value IS the protocol v1 status byte, and the ConfigError codes map onto
// it losslessly (to_status below). Codes are append-only: renumbering is a
// wire-protocol break.
#pragma once

#include <cstdint>

#include "core/error.hpp"

namespace swve::service {

enum class ServiceStatus : uint8_t {
  Ok = 0,                ///< request succeeded; payload carries the result
  InvalidConfig = 1,     ///< alignment config failed validation
  EmptyRequest = 2,      ///< request carries no sequences / queries
  NoDatabase = 3,        ///< search/batch against a database-less service
  QueueFull = 4,         ///< submission queue at capacity (backpressure)
  DeadlineExceeded = 5,  ///< deadline passed while queued or mid-run
  ShuttingDown = 6,      ///< service draining / stopped; not accepted
  Unsupported = 7,       ///< valid request, unsupported combination
  Internal = 8,          ///< unexpected server-side failure
  // Protocol-layer outcomes (produced by the net front door, never by the
  // in-process service):
  BadFrame = 9,          ///< malformed frame / undecodable payload
  FrameTooLarge = 10,    ///< length prefix beyond the server's frame limit
  BadVersion = 11,       ///< wrong magic or unsupported protocol version
  UnknownType = 12,      ///< unrecognized message type byte
};

/// Short stable identifier for logs/metrics ("queue_full", ...).
constexpr const char* status_name(ServiceStatus s) noexcept {
  switch (s) {
    case ServiceStatus::Ok: return "ok";
    case ServiceStatus::InvalidConfig: return "invalid_config";
    case ServiceStatus::EmptyRequest: return "empty_request";
    case ServiceStatus::NoDatabase: return "no_database";
    case ServiceStatus::QueueFull: return "queue_full";
    case ServiceStatus::DeadlineExceeded: return "deadline_exceeded";
    case ServiceStatus::ShuttingDown: return "shutting_down";
    case ServiceStatus::Unsupported: return "unsupported";
    case ServiceStatus::Internal: return "internal";
    case ServiceStatus::BadFrame: return "bad_frame";
    case ServiceStatus::FrameTooLarge: return "frame_too_large";
    case ServiceStatus::BadVersion: return "bad_version";
    case ServiceStatus::UnknownType: return "unknown_type";
  }
  return "unknown";
}

/// The wire status byte of protocol v1 (identity by design, but call this
/// instead of casting so the contract has one spelling).
constexpr uint8_t wire_status(ServiceStatus s) noexcept {
  return static_cast<uint8_t>(s);
}

/// Inverse of wire_status for bytes received off the wire; out-of-range
/// values collapse to Internal rather than inventing a code.
constexpr ServiceStatus status_from_wire(uint8_t b) noexcept {
  return b <= static_cast<uint8_t>(ServiceStatus::UnknownType)
             ? static_cast<ServiceStatus>(b)
             : ServiceStatus::Internal;
}

/// Collapse a core::ConfigError::Code onto the service boundary vocabulary.
/// The four config-validation codes all become InvalidConfig — a client
/// cannot act on the distinction, and the message string keeps the detail.
constexpr ServiceStatus to_status(core::ConfigError::Code c) noexcept {
  using Code = core::ConfigError::Code;
  switch (c) {
    case Code::Ok: return ServiceStatus::Ok;
    case Code::MissingMatrix:
    case Code::NegativeGapPenalty:
    case Code::OpenLessThanExtend:
    case Code::MatchLessThanMismatch: return ServiceStatus::InvalidConfig;
    case Code::EmptyRequest: return ServiceStatus::EmptyRequest;
    case Code::NoDatabase: return ServiceStatus::NoDatabase;
    case Code::QueueFull: return ServiceStatus::QueueFull;
    case Code::DeadlineExceeded: return ServiceStatus::DeadlineExceeded;
    case Code::ShuttingDown: return ServiceStatus::ShuttingDown;
    case Code::Unsupported: return ServiceStatus::Unsupported;
    case Code::Internal: return ServiceStatus::Internal;
    // Artifact problems are a startup-time concern; if one ever surfaces
    // through the request path it is a server-side fault.
    case Code::InvalidArtifact: return ServiceStatus::Internal;
  }
  return ServiceStatus::Internal;
}

}  // namespace swve::service
