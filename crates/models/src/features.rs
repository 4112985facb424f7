//! The DNS-transport feature matrix of Table 1, cross-checked against
//! this workspace's actual implementations where possible.

/// One transport's feature row (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMatrix {
    /// Column label ("UDP", "TCP", …).
    pub transport: &'static str,
    /// Message segmentation above the link layer.
    pub segmentation: bool,
    /// Message authentication.
    pub authentication: bool,
    /// Message encryption.
    pub encryption: bool,
    /// Message format multiplexing (Content-Type / Content-Format).
    pub format_multiplexing: bool,
    /// Shares its protocol with the application.
    pub shares_protocol_with_app: bool,
    /// Suitability for the constrained IoT.
    pub iot_suitable: bool,
    /// Content secure en-route caching.
    pub secure_enroute_caching: bool,
}

/// All nine columns of Table 1, in the paper's order.
pub fn transport_features() -> Vec<FeatureMatrix> {
    vec![
        FeatureMatrix {
            transport: "UDP",
            segmentation: false,
            authentication: true,
            encryption: false,
            format_multiplexing: false,
            shares_protocol_with_app: false,
            iot_suitable: true,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "TCP",
            segmentation: true,
            authentication: true,
            encryption: false,
            format_multiplexing: false,
            shares_protocol_with_app: false,
            iot_suitable: false,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "DTLS",
            segmentation: false,
            authentication: true,
            encryption: true,
            format_multiplexing: false,
            shares_protocol_with_app: false,
            iot_suitable: true,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "TLS",
            segmentation: true,
            authentication: true,
            encryption: true,
            format_multiplexing: false,
            shares_protocol_with_app: false,
            iot_suitable: false,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "QUIC",
            segmentation: true,
            authentication: true,
            encryption: true,
            format_multiplexing: false,
            shares_protocol_with_app: false,
            iot_suitable: false,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "HTTPS",
            segmentation: true,
            authentication: true,
            encryption: true,
            format_multiplexing: true,
            shares_protocol_with_app: true,
            iot_suitable: false,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "CoAP",
            segmentation: true,
            authentication: true,
            encryption: false,
            format_multiplexing: true,
            shares_protocol_with_app: true,
            iot_suitable: true,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "CoAPS",
            segmentation: true,
            authentication: true,
            encryption: true,
            format_multiplexing: true,
            shares_protocol_with_app: true,
            iot_suitable: true,
            secure_enroute_caching: false,
        },
        FeatureMatrix {
            transport: "OSCORE",
            segmentation: true,
            authentication: true,
            encryption: true,
            format_multiplexing: true,
            shares_protocol_with_app: true,
            iot_suitable: true,
            secure_enroute_caching: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use doc_core::method::DocMethod;

    #[test]
    fn nine_columns_in_order() {
        let t = transport_features();
        let names: Vec<&str> = t.iter().map(|f| f.transport).collect();
        assert_eq!(
            names,
            vec!["UDP", "TCP", "DTLS", "TLS", "QUIC", "HTTPS", "CoAP", "CoAPS", "OSCORE"]
        );
    }

    /// Table 1's punchline: OSCORE is the only transport with content
    /// secure en-route caching.
    #[test]
    fn only_oscore_caches_securely_enroute() {
        for f in transport_features() {
            assert_eq!(
                f.secure_enroute_caching,
                f.transport == "OSCORE",
                "{}",
                f.transport
            );
        }
    }

    /// CoAP-family segmentation = block-wise transfer, which the
    /// implementation really provides.
    #[test]
    fn coap_segmentation_is_blockwise() {
        let features = transport_features();
        for label in ["CoAP", "CoAPS", "OSCORE"] {
            assert!(
                features
                    .iter()
                    .find(|f| f.transport == label)
                    .expect("row")
                    .segmentation,
                "{label}"
            );
        }
        // And the implementation supports it for FETCH/POST queries.
        assert!(DocMethod::Fetch.blockwise_query());
        assert!(DocMethod::Post.blockwise_query());
        // DTLS/UDP rows have no segmentation — and indeed the paper's
        // DoDTLS "does not provide means for message segmentation".
        assert!(
            !features
                .iter()
                .find(|f| f.transport == "DTLS")
                .expect("row")
                .segmentation
        );
        assert!(
            !features
                .iter()
                .find(|f| f.transport == "UDP")
                .expect("row")
                .segmentation
        );
    }

    /// IoT suitability: UDP, DTLS and the CoAP family only.
    #[test]
    fn iot_suitability_column() {
        for f in transport_features() {
            let expect = matches!(f.transport, "UDP" | "DTLS" | "CoAP" | "CoAPS" | "OSCORE");
            assert_eq!(f.iot_suitable, expect, "{}", f.transport);
        }
    }

    /// Format multiplexing requires an application-layer content type —
    /// HTTPS and the CoAP family.
    #[test]
    fn format_multiplexing_column() {
        for f in transport_features() {
            let expect = matches!(f.transport, "HTTPS" | "CoAP" | "CoAPS" | "OSCORE");
            assert_eq!(f.format_multiplexing, expect, "{}", f.transport);
        }
    }
}
